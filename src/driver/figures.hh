/**
 * @file
 * The paper's evaluation as data: one row per figure or table — its
 * cell set as `stems run` tokens, a pivot layout over the run, and the
 * "Expected shape" text the output is read against. `stems figure
 * NAME [run keys]` renders any row through the `stems run` path.
 */

#ifndef STEMS_DRIVER_FIGURES_HH
#define STEMS_DRIVER_FIGURES_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "driver/report.hh"

namespace stems::driver {

/** Executes one spec (the CLI passes dispatch::runSpec). */
using RunFn =
    std::function<std::vector<CellResult>(const ExperimentSpec &)>;

struct Figure
{
    std::string name;                 //!< `stems figure` argument
    std::string title, detail;        //!< banner
    std::vector<std::string> tokens;  //!< the cell set, as run keys
    std::vector<PivotSpec> tables{};
    /** A layout no pivot expresses (replaces tables). */
    void (*render)(const ExperimentSpec &, const RunFn &,
                   std::ostream &) = nullptr;
    std::string expected;  //!< what the output should show
};

/** Every figure, in paper order. */
const std::vector<Figure> &figures();

/** The row named @p name; throws std::invalid_argument naming all. */
const Figure &findFigure(const std::string &name);

/** Parse the row's tokens followed by @p args (later keys win). */
ExperimentSpec figureSpec(const Figure &f,
                          const std::vector<std::string> &args);

/** Banner, body and expected text; throws naming a failed cell. */
std::string renderFigure(const Figure &f, const ExperimentSpec &spec,
                         const RunFn &run);

} // namespace stems::driver

#endif // STEMS_DRIVER_FIGURES_HH
