/**
 * @file
 * Column-aligned ASCII table printing for reports and the paper
 * figures (see driver/figures.hh).
 */

#ifndef STEMS_STUDY_TABLE_HH
#define STEMS_STUDY_TABLE_HH

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace stems::study {

/** Simple right-padded table with a header row. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers)
        : headers(std::move(headers))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows.push_back(std::move(cells));
    }

    void
    print(std::ostream &os = std::cout) const
    {
        std::vector<size_t> width(headers.size());
        for (size_t c = 0; c < headers.size(); ++c)
            width[c] = headers[c].size();
        for (const auto &r : rows)
            for (size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto emit = [&](const std::vector<std::string> &r) {
            for (size_t c = 0; c < width.size(); ++c) {
                std::string cell = c < r.size() ? r[c] : "";
                os << std::left << std::setw(
                       static_cast<int>(width[c]) + 2) << cell;
            }
            os << '\n';
        };
        emit(headers);
        std::string rule;
        for (size_t c = 0; c < width.size(); ++c)
            rule += std::string(width[c], '-') + "  ";
        os << rule << '\n';
        for (const auto &r : rows)
            emit(r);
    }

    /** Format a ratio as a percentage, one decimal. */
    static std::string
    pct(double v)
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(1) << v * 100.0 << "%";
        return os.str();
    }

    /** Fixed-point format. */
    static std::string
    fixed(double v, int prec = 2)
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(prec) << v;
        return os.str();
    }

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

} // namespace stems::study

#endif // STEMS_STUDY_TABLE_HH
