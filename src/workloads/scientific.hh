/**
 * @file
 * The three scientific reference applications of Table 1, implemented
 * as their standard kernels:
 *
 *  - em3d: bipartite-graph electromagnetic propagation (degree 2,
 *    15% remote neighbours), pointer-dependent neighbour reads;
 *  - ocean: red-black 5-point stencil relaxation on a 1026x1026 grid,
 *    row-partitioned with shared boundary rows;
 *  - sparse: sparse matrix-vector product (CSR), dense streaming over
 *    vals/cols with irregular gathers from x.
 */

#ifndef STEMS_WORKLOADS_SCIENTIFIC_HH
#define STEMS_WORKLOADS_SCIENTIFIC_HH

#include "workloads/workload.hh"

namespace stems::workloads {

/**
 * em3d sizing (paper: 3M nodes, degree 2, 15% remote). Scaled so the
 * default trace budget covers several iterations — the repetition the
 * paper's billions-of-instructions traces provide. A larger `refs=`
 * raises budgets for closer-to-paper runs.
 */
struct Em3dParams
{
    uint32_t nodes = 1 << 20;   //!< values+edges stream past the L2s
    uint32_t degree = 2;
    double remoteFraction = 0.15;
};

/** ocean sizing (paper: 1026x1026 grid, scaled — see Em3dParams). */
struct OceanParams
{
    uint32_t rows = 1026;  //!< the paper's grid
    uint32_t cols = 1026;
};

/** sparse sizing (paper: 4096x4096 matrix, scaled — see Em3dParams). */
struct SparseParams
{
    uint32_t rows = 32768;   //!< vals+cols ~ 24 MB: streams past L2
    uint32_t nnzPerRow = 64;
};

/** em3d electromagnetic kernel. */
class Em3dWorkload : public Workload
{
  public:
    explicit Em3dWorkload(Em3dParams params = Em3dParams())
        : prm(params)
    {}

    std::string name() const override { return "em3d"; }
    SuiteClass suiteClass() const override { return SuiteClass::Scientific; }
    std::vector<trace::Trace>
    generateStreams(const WorkloadParams &p) override;

  private:
    Em3dParams prm;
};

/** ocean grid relaxation kernel. */
class OceanWorkload : public Workload
{
  public:
    explicit OceanWorkload(OceanParams params = OceanParams())
        : prm(params)
    {}

    std::string name() const override { return "ocean"; }
    SuiteClass suiteClass() const override { return SuiteClass::Scientific; }
    std::vector<trace::Trace>
    generateStreams(const WorkloadParams &p) override;

  private:
    OceanParams prm;
};

/** sparse matrix-vector product kernel (CSR). */
class SparseWorkload : public Workload
{
  public:
    explicit SparseWorkload(SparseParams params = SparseParams())
        : prm(params)
    {}

    std::string name() const override { return "sparse"; }
    SuiteClass suiteClass() const override { return SuiteClass::Scientific; }
    std::vector<trace::Trace>
    generateStreams(const WorkloadParams &p) override;

  private:
    SparseParams prm;
};

} // namespace stems::workloads

#endif // STEMS_WORKLOADS_SCIENTIFIC_HH
