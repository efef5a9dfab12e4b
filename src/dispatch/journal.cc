#include "dispatch/journal.hh"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <iostream>
#include <stdexcept>
#include <unistd.h>

#include <memory>

#include "dispatch/wire.hh"
#include "driver/options.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "fault/fault.hh"
#include "serve/transport.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "obs/obs.hh"

namespace stems::dispatch {

using driver::CellResult;
using driver::ProgressFn;

namespace {

constexpr uint32_t kJournalVersion = 1;

std::string
hexU64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::string
encodeHeader(uint64_t specHash, uint64_t cellCount)
{
    driver::JsonWriter j;
    j.beginObject();
    j.key("type").value("journal");
    j.key("version").value(uint64_t{kJournalVersion});
    j.key("spec").value(hexU64(specHash));
    j.key("cells").value(cellCount);
    j.endObject();
    return j.str();
}

} // anonymous namespace

uint64_t
specFingerprint(const std::vector<driver::RunCell> &cells)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0x1f;  // frame separator so encodings cannot alias
        h *= 0x100000001b3ULL;
    };
    for (const auto &cell : cells)
        fold(encodeCellJob(cell));
    return h;
}

JournalContents
readJournal(const std::string &bytes)
{
    JournalContents out;
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    std::string payload;
    try {
        if (!decoder.next(payload))
            return out;  // empty, or killed inside the header write
        const JsonValue header = parseJson(payload);
        if (messageType(header) == "journal" &&
            header.at("version").asU64() == kJournalVersion) {
            out.spec = header.at("spec").asString();
            out.hasHeader = true;
        }
    } catch (const std::exception &) {
        // a corrupt frame or a header missing its fields
    }
    if (!out.hasHeader)
        throw std::invalid_argument("not a stems run journal");
    out.cleanEnd = decoder.offset();
    // result frames, first-ok-wins per id, up to a killed writer's
    // torn or unparseable tail
    try {
        while (decoder.next(payload)) {
            const JsonValue msg = parseJson(payload);
            if (messageType(msg) != "result")
                break;
            CellResult r = decodeResult(msg);
            const uint32_t id = r.cell.id;
            if (r.error.empty())
                out.results.try_emplace(id, std::move(r));
            out.cleanEnd = decoder.offset();
        }
    } catch (const std::exception &) {
        // a garbled tail ends the clean prefix like a torn one
    }
    return out;
}

RunJournal::~RunJournal()
{
    close();
}

void
RunJournal::open(const std::string &path, uint64_t specHash,
                 uint64_t cellCount, bool resume)
{
    close();
    replayed_.clear();
    path_ = path;

    JournalContents existing;
    if (resume) {
        obs::Span span("journal_replay", {{"path", path}});
        std::string buf;
        driver::readFile(path, buf);  // missing: nothing to resume
        try {
            existing = readJournal(buf);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument("journal: " + path + ": " +
                                        e.what());
        }
        if (existing.hasHeader && existing.spec != hexU64(specHash))
            throw std::invalid_argument(
                "journal: " + path +
                " was written by a different spec (or cells= filter) "
                "— refusing to splice unrelated results");
        replayed_ = std::move(existing.results);
    }

    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0)
        throw std::runtime_error("journal: cannot open " + path + ": " +
                                 std::strerror(errno));
    if (existing.hasHeader) {
        // drop the torn tail so appends land on a frame boundary
        const auto cleanEnd = static_cast<off_t>(existing.cleanEnd);
        if (::ftruncate(fd_, cleanEnd) != 0 ||
            ::lseek(fd_, 0, SEEK_END) < 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error("journal: cannot truncate " +
                                     path + ": " + std::strerror(err));
        }
        obs::count(&obs::Counters::journalCellsReplayed,
                   replayed_.size());
    } else {
        if (::ftruncate(fd_, 0) != 0 ||
            !writeFrame(fd_, encodeHeader(specHash, cellCount),
                        Tally::None) ||
            ::fsync(fd_) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error("journal: cannot write " + path +
                                     ": " + std::strerror(err));
        }
    }
}

void
RunJournal::append(const CellResult &result)
{
    if (fd_ < 0)
        return;
    obs::Span span("journal_append",
                   {{"cell", std::to_string(result.cell.id)}});
    bool ok = writeFrame(fd_, encodeResult(result), Tally::None);
    if (ok) {
        const uint64_t t0 = obs::monotonicNs();
        ok = ::fsync(fd_) == 0;
        obs::recordHist(&obs::Histograms::journalFsyncUs,
                        (obs::monotonicNs() - t0) / 1000);
    }
    if (!ok) {
        std::cerr << "stems: journal write to " << path_
                  << " failed (" << std::strerror(errno)
                  << "); continuing without durability\n";
        close();
        return;
    }
    obs::count(&obs::Counters::journalCellsWritten);
}

void
RunJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::vector<CellResult>
runSpec(const driver::ExperimentSpec &spec, const ProgressFn &progress,
        std::vector<WorkerStats> *statsOut, double *wallMsOut,
        const StartFn &onStart)
{
    if (statsOut)
        statsOut->clear();
    if (wallMsOut)
        *wallMsOut = 0;

    // chaos plan: install process-wide (spill faults fire in-process
    // too) and export so forked workers inherit it; validate before
    // any work happens
    if (!spec.faultPlan.empty()) {
        fault::installPlan(fault::parsePlan(spec.faultPlan));
        ::setenv("STEMS_FAULTS", spec.faultPlan.c_str(), 1);
    }

    driver::CellScheduler sched(spec);
    RunJournal journal;
    if (!spec.journalPath.empty()) {
        journal.open(spec.journalPath, specFingerprint(sched.cells()),
                     sched.cells().size(), spec.resume);
        sched.seed(journal.replayed());
    }
    sched.onComplete([&journal, &progress](const CellResult &r,
                                           size_t done, size_t total) {
        journal.append(r);  // no-op without journal=
        if (progress)
            progress(r, done, total);
    });
    if (onStart)
        onStart(sched);
    if (sched.pending() == 0)
        return sched.takeResults();

    if (spec.dispatch > 0 || !spec.dispatchWorkers.empty()) {
        DispatchConfig dcfg;
        dcfg.workers = spec.dispatch;
        dcfg.timeoutMs = spec.dispatchTimeoutMs;
        dcfg.maxAttempts = spec.dispatchRetries;
        dcfg.trace = !spec.traceOut.empty();
        dcfg.heartbeatMs = spec.dispatchHeartbeatMs;
        dcfg.speculate = spec.dispatchSpeculate;
        dcfg.workerExe = spec.dispatchWorkerExe;
        // workers= swaps the pipe transport for sockets; the dispatch
        // bytes on the wire are identical either way
        std::unique_ptr<Transport> transport;
        if (!spec.dispatchWorkers.empty()) {
            serve::SocketTransport::Config scfg;
            scfg.endpoints = driver::splitList(spec.dispatchWorkers);
            scfg.spawnCmd = spec.dispatchSpawnCmd;
            if (dcfg.workers == 0)
                dcfg.workers =
                    static_cast<uint32_t>(scfg.endpoints.size());
            transport = std::make_unique<serve::SocketTransport>(
                std::move(scfg));
        }
        Coordinator coord(spec, dcfg, std::move(transport));
        coord.run(sched);
        if (statsOut)
            *statsOut = coord.workerStats();
        if (wallMsOut)
            *wallMsOut = coord.wallMs();
    } else {
        const auto start = std::chrono::steady_clock::now();
        driver::drainInProcess(spec, sched);
        if (wallMsOut)
            *wallMsOut = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    }
    return sched.takeResults();
}

} // namespace stems::dispatch
