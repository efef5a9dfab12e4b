/**
 * @file
 * stems_benchmark: the compiled half of the repository benchmark
 * (benchmark/run.py drives it; see benchmark/README.md).
 *
 *   stems_benchmark record dir=D [ncpu= refs= seed=]
 *       record the paper suite's spills into D (batch set-up)
 *   stems_benchmark load server=ADDR spec=FILE expect=FILE
 *                        [seconds= count=]
 *       closed-loop `stems submit` clients resubmitting one spec
 *   stems_benchmark layers dir=D [ncpu= refs= seed= trace=FILE]
 *       the traced per-layer panel
 */

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hh"
#include "subcommands.hh"

int
main(int argc, char **argv)
{
    using namespace stems::bench;
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::cerr << "usage: stems_benchmark record|load|layers "
                     "key=value...\n";
        return 2;
    }
    const std::string cmd = args[0];
    args.erase(args.begin());
    try {
        const auto opts = parseArgs(args);
        if (cmd == "record")
            return cmdRecord(opts);
        if (cmd == "load")
            return cmdLoad(opts);
        if (cmd == "layers")
            return cmdLayers(opts);
        std::cerr << "stems_benchmark: unknown command \"" << cmd
                  << "\"\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "stems_benchmark: " << e.what() << "\n";
        return 1;
    }
}
