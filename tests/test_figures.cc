/**
 * @file
 * The figure table: every row parses as `stems run` tokens, renders at
 * refs=2000 byte-identically to its golden under tests/golden/, and
 * is named by `stems list`.
 */

#include <gtest/gtest.h>

#include "dispatch/journal.hh"
#include "driver/commands.hh"
#include "driver/figures.hh"

using namespace stems;
using namespace stems::driver;

TEST(Figures, EveryRowParsesAsRunTokens)
{
    ASSERT_FALSE(figures().empty());
    for (const auto &f : figures()) {
        SCOPED_TRACE(f.name);
        EXPECT_NO_THROW(parseSpec(f.tokens));
        EXPECT_NE(f.tables.empty(), f.render == nullptr);
        EXPECT_EQ(&findFigure(f.name), &f);
    }
    EXPECT_THROW(findFigure("fig99_nope"), std::invalid_argument);
}

TEST(Figures, EveryRowRendersItsGoldenBytes)
{
    const RunFn run = [](const ExperimentSpec &spec) {
        return dispatch::runSpec(spec);
    };
    for (const auto &f : figures()) {
        SCOPED_TRACE(f.name);
        std::string golden;
        ASSERT_TRUE(readFile(std::string(STEMS_SOURCE_DIR) +
                                 "/tests/golden/" + f.name + ".txt",
                             golden));
        const ExperimentSpec spec =
            figureSpec(f, {"refs=2000", "quiet=1"});
        EXPECT_EQ(renderFigure(f, spec, run), golden);
    }
}

TEST(Figures, ListNamesEveryFigure)
{
    const std::string list = listText();
    for (const auto &f : figures())
        EXPECT_NE(list.find("  " + f.name + " "), std::string::npos)
            << f.name;
}
