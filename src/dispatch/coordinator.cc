#include "dispatch/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <iostream>
#include <poll.h>
#include <set>
#include <stdexcept>
#include <sys/wait.h>
#include <unistd.h>

#include <sstream>

#include "dispatch/wire.hh"
#include "driver/executor.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "obs/obs.hh"
#include "study/table.hh"

namespace stems::dispatch {

using driver::CellResult;
using driver::ProgressFn;
using driver::RunCell;

namespace {

using Clock = std::chrono::steady_clock;

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // anonymous namespace

// ---------------------------------------------------------------------
// transport
// ---------------------------------------------------------------------

std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "stems";  // fall back to PATH lookup
    buf[n] = '\0';
    return buf;
}

LocalProcessTransport::LocalProcessTransport(std::string exe)
    : exe(std::move(exe))
{
}

WorkerProcess
LocalProcessTransport::spawn()
{
    int toChild[2], fromChild[2];
    if (::pipe(toChild) != 0)
        throw std::runtime_error("dispatch: pipe: " +
                                 std::string(std::strerror(errno)));
    if (::pipe(fromChild) != 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        throw std::runtime_error("dispatch: pipe: " +
                                 std::string(std::strerror(errno)));
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        throw std::runtime_error("dispatch: fork: " +
                                 std::string(std::strerror(errno)));
    }
    if (pid == 0) {
        // child: wire the pipes onto stdin/stdout and become a worker
        ::dup2(toChild[0], STDIN_FILENO);
        ::dup2(fromChild[1], STDOUT_FILENO);
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        ::execlp(exe.c_str(), exe.c_str(), "worker",
                 static_cast<char *>(nullptr));
        std::cerr << "stems dispatch: exec " << exe << ": "
                  << std::strerror(errno) << "\n";
        ::_exit(127);
    }

    ::close(toChild[0]);
    ::close(fromChild[1]);
    WorkerProcess proc;
    proc.pid = pid;
    proc.toWorker = toChild[1];
    proc.fromWorker = fromChild[0];
    return proc;
}

// ---------------------------------------------------------------------
// coordinator
// ---------------------------------------------------------------------

/**
 * One pool slot's connection, decode state and in-flight assignment,
 * plus the workloads of every cell handed to its current process: that
 * process has their traces mapped and their baselines memoized, so it
 * prefers their equal-cost cells. A respawn starts an empty set.
 */
struct Coordinator::Worker
{
    WorkerProcess proc;
    std::set<std::string> workloads;  //!< held by this incarnation
    FrameDecoder decoder;
    bool alive = false;
    bool ready = false;     //!< handshake complete, can take cells
    int cell = -1;          //!< scheduler cell index (-1 = idle)
    Clock::time_point deadline{};  //!< valid when cell != -1
    uint64_t assignedAtNs = 0;     //!< round-trip start (monotonic)
    int stats = -1;         //!< index into workerStats_ (-1 = none)
    Clock::time_point lastHeardAt{};  //!< any bytes read (liveness)
    uint32_t failStreak = 0;    //!< consecutive losses (backoff input)
    Clock::time_point nextSpawnAt{};  //!< backoff gate for respawn
};

namespace {

/** Consecutive heartbeat periods a worker may miss before it is
 *  declared wedged and killed. */
constexpr uint32_t kHeartbeatMissBudget = 4;

/** Respawn backoff base: a slot's delay doubles per consecutive
 *  loss from here, so a crash-looping worker cannot pin the
 *  coordinator in a fork storm. */
constexpr uint32_t kBackoffBaseMs = 50;

/** Respawn backoff ceiling. */
constexpr uint32_t kBackoffCapMs = 5000;

/** Deterministic backoff with jitter for the Nth consecutive loss. */
uint32_t
backoffDelayMs(uint32_t streak, uint64_t salt)
{
    if (streak == 0)
        return 0;
    const uint32_t shift = std::min<uint32_t>(streak - 1, 6);
    const uint64_t exp = std::min<uint64_t>(
        uint64_t{kBackoffBaseMs} << shift, kBackoffCapMs);
    // jitter in [0, base) desynchronizes a pool crashing in lockstep
    uint64_t h = salt * 0x9e3779b97f4a7c15ULL + streak;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<uint32_t>(
        std::min<uint64_t>(exp + h % kBackoffBaseMs, kBackoffCapMs));
}

} // anonymous namespace

Coordinator::Coordinator(const driver::ExperimentSpec &spec,
                         DispatchConfig config,
                         std::unique_ptr<Transport> transport)
    : spec(spec), cfg(std::move(config)), transport(std::move(transport))
{
    if (cfg.workerExe.empty())
        cfg.workerExe = selfExePath();
    if (!this->transport)
        this->transport =
            std::make_unique<LocalProcessTransport>(cfg.workerExe);
    if (cfg.workers == 0)
        cfg.workers = 1;
    if (cfg.maxAttempts == 0)
        cfg.maxAttempts = 1;

    // workers share one trace spill dir so each workload's trace is
    // generated once per sweep; provision a temp dir when the spec
    // does not pin one (cleaned up in the destructor)
    if (this->spec.traceDir.empty()) {
        std::string tmpl =
            (std::filesystem::temp_directory_path() /
             "stems-dispatch-XXXXXX")
                .string();
        if (::mkdtemp(tmpl.data()) == nullptr)
            throw std::runtime_error("dispatch: mkdtemp: " +
                                     std::string(std::strerror(errno)));
        ownedTraceDir = tmpl;
        this->spec.traceDir = ownedTraceDir;
    }
}

Coordinator::~Coordinator()
{
    if (!ownedTraceDir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(ownedTraceDir, ec);  // best effort
    }
}

std::vector<CellResult>
Coordinator::run(const ProgressFn &progress)
{
    driver::CellScheduler sched(spec);
    sched.onComplete(progress);
    run(sched);
    return sched.takeResults();
}

void
Coordinator::run(driver::CellScheduler &sched)
{
    workerStats_.clear();
    wallMs_ = 0;
    if (sched.pending() == 0)
        return;
    const auto runStart = Clock::now();
    const std::vector<RunCell> &cells = sched.cells();

    // a worker dying mid-write must surface as EPIPE, not SIGPIPE
    std::signal(SIGPIPE, SIG_IGN);

    WorkerInit init;
    init.traceDir = spec.traceDir;
    init.trace = cfg.trace;
    init.heartbeatMs = cfg.heartbeatMs;
    const std::string initFrame = encodeInit(init);

    const uint32_t workers = std::min<uint32_t>(
        cfg.workers, static_cast<uint32_t>(sched.pending()));

    // enough respawns that the per-cell attempt cap is the real
    // limiter, yet bounded so a fork-bomb failure mode cannot loop
    uint32_t respawnBudget = workers +
        2 * static_cast<uint32_t>(sched.pending()) * cfg.maxAttempts;

    std::vector<Worker> pool(workers);

    auto reap = [](Worker &w) {
        closeFd(w.proc.toWorker);
        closeFd(w.proc.fromWorker);
        if (w.proc.pid > 0) {
            ::kill(w.proc.pid, SIGKILL);
            ::waitpid(w.proc.pid, nullptr, 0);
            w.proc.pid = -1;
        }
        w.alive = false;
        w.ready = false;
        w.decoder = FrameDecoder();
    };

    // a worker died (crash, heartbeat loss, timeout, protocol error):
    // the scheduler re-queues its in-flight cell or, past the attempt
    // cap, records the failure through the cell-error path; the slot
    // backs off exponentially before it may respawn
    auto workerLost = [&](Worker &w, const std::string &reason) {
        const int cell = w.cell;
        obs::instant("worker_lost",
                     {{"pid", std::to_string(w.proc.pid)},
                      {"reason", reason}});
        if (w.stats >= 0)
            ++workerStats_[w.stats].lost;
        w.cell = -1;
        reap(w);
        ++w.failStreak;
        w.nextSpawnAt = Clock::now() +
            std::chrono::milliseconds(backoffDelayMs(
                w.failStreak,
                static_cast<uint64_t>(&w - pool.data()) + 1));
        if (cell >= 0)
            sched.lost(static_cast<size_t>(cell), "dispatch: " + reason,
                       cfg.maxAttempts);
    };

    auto trySpawn = [&](Worker &w) -> bool {
        if (respawnBudget == 0)
            return false;
        if (Clock::now() < w.nextSpawnAt)
            return false;  // still backing off; budget not consumed
        --respawnBudget;
        try {
            w.proc = transport->spawn();
        } catch (const std::exception &e) {
            std::cerr << "stems dispatch: spawn failed: " << e.what()
                      << "\n";
            return false;
        }
        w.alive = true;
        w.ready = false;
        w.cell = -1;
        w.workloads.clear();
        w.decoder = FrameDecoder();
        w.lastHeardAt = Clock::now();
        WorkerStats stats;
        stats.pid = w.proc.pid;
        w.stats = static_cast<int>(workerStats_.size());
        workerStats_.push_back(std::move(stats));
        obs::instant("worker_spawn",
                     {{"pid", std::to_string(w.proc.pid)}});
        if (!writeFrame(w.proc.toWorker, initFrame)) {
            reap(w);
            return false;
        }
        return true;
    };

    // hand a claimed @p cell to @p w; the attempt number rides the wire
    // so the fault injector can key first-attempt-only chaos
    // deterministically
    auto dispatchCell = [&](Worker &w, size_t cell) {
        const uint32_t attempt = sched.attempts(cell);
        if (attempt > 1)
            obs::count(&obs::Counters::dispatchRetries);
        w.cell = static_cast<int>(cell);
        w.workloads.insert(cells[cell].workload);
        w.assignedAtNs = obs::monotonicNs();
        if (cfg.timeoutMs > 0)
            w.deadline = Clock::now() +
                std::chrono::milliseconds(cfg.timeoutMs);
        std::string job;
        {
            obs::Span span("encode_cell",
                           {{"cell", std::to_string(cells[cell].id)}});
            job = encodeCellJob(cells[cell], attempt);
        }
        if (!writeFrame(w.proc.toWorker, job))
            workerLost(w, "worker rejected cell " +
                              std::to_string(cells[cell].id));
    };

    auto assign = [&](Worker &w) {
        if (!w.alive || !w.ready || w.cell != -1)
            return;
        if (const auto cell = sched.claim([&](const RunCell &c) {
                return w.workloads.contains(c.workload);
            }))
            dispatchCell(w, *cell);
    };

    // fold a first result's v4 telemetry sidecar into this
    // incarnation's health stats and merge any worker spans (re-tagged
    // with the worker pid) into the coordinator's trace timeline
    auto foldTelemetry = [&](Worker &w, size_t cell,
                             obs::CellTelemetry &tel) {
        const double rtMs =
            static_cast<double>(obs::monotonicNs() - w.assignedAtNs) /
            1e6;
        obs::recordHist(&obs::Histograms::dispatchRttUs,
                        static_cast<uint64_t>(rtMs * 1000.0));
        // the worker's own wall is the sum of its phase timings; the
        // RTT above additionally carries wire + queue overhead
        double phaseSumMs = 0;
        for (const auto &[name, ms] : tel.phases)
            phaseSumMs += ms;
        if (phaseSumMs > 0)
            obs::recordHist(&obs::Histograms::cellWallUs,
                            static_cast<uint64_t>(phaseSumMs * 1000.0));
        if (w.stats >= 0) {
            WorkerStats &ws = workerStats_[w.stats];
            ++ws.cellsDone;
            ws.busyMs += rtMs;
            for (const auto &[name, ms] : tel.phases) {
                auto it = std::find_if(
                    ws.phaseMs.begin(), ws.phaseMs.end(),
                    [&](const auto &p) { return p.first == name; });
                if (it == ws.phaseMs.end())
                    ws.phaseMs.emplace_back(name, ms);
                else
                    it->second += ms;
            }
            if (!tel.counters.empty())
                ws.counters = tel.counters;
            ws.rssKb = std::max(ws.rssKb, tel.rssKb);
        }
        obs::Recorder &rec = obs::Recorder::get();
        if (rec.enabled()) {
            obs::Event e;
            e.name = "dispatch_cell";
            e.tsNs = w.assignedAtNs;
            e.durNs = obs::monotonicNs() - w.assignedAtNs;
            e.args.emplace_back("cell", std::to_string(cells[cell].id));
            e.args.emplace_back("pid", std::to_string(w.proc.pid));
            rec.record(std::move(e));
            if (!tel.spans.empty()) {
                for (auto &s : tel.spans)
                    s.pid = w.proc.pid;
                rec.ingest(std::move(tel.spans));
                tel.spans.clear();
            }
        }
    };

    // drain every complete frame buffered for one worker
    auto handleFrames = [&](Worker &w) {
        std::string payload;
        for (;;) {
            try {
                if (!w.decoder.next(payload))
                    return;
                const JsonValue msg = parseJson(payload);
                const std::string &type = messageType(msg);
                if (type == "ready") {
                    w.ready = true;
                } else if (type == "heartbeat") {
                    // liveness only; lastHeardAt was already bumped
                    // when the bytes arrived
                } else if (type == "result") {
                    CellResult wire;
                    {
                        obs::Span span("decode_result");
                        wire = decodeResult(msg);
                    }
                    const int cell = w.cell;
                    if (cell < 0 || wire.cell.id != cells[cell].id) {
                        workerLost(w, "worker answered for the wrong "
                                      "cell");
                        return;
                    }
                    w.cell = -1;
                    w.failStreak = 0;
                    // a duplicate copy that lost the race is dropped
                    // by the scheduler and leaves no telemetry
                    if (!sched.done(static_cast<size_t>(cell)))
                        foldTelemetry(w, static_cast<size_t>(cell),
                                      wire.telemetry);
                    sched.complete(static_cast<size_t>(cell),
                                   std::move(wire));
                } else {
                    workerLost(w, "unexpected message \"" + type +
                                      "\"");
                    return;
                }
            } catch (const std::exception &e) {
                workerLost(w, std::string("protocol error (") +
                                  e.what() + ")");
                return;
            }
            assign(w);
        }
    };

    for (auto &w : pool)
        trySpawn(w);

    while (!sched.finished()) {
        // refill dead slots only while there is un-assigned work no
        // live worker could absorb — a respawned worker with nothing
        // pending would idle until shutdown and waste respawn budget
        size_t unassigned = 0;
        for (const auto &w : pool)
            if (w.alive && w.cell == -1)
                ++unassigned;
        for (auto &w : pool) {
            if (w.alive || sched.pending() <= unassigned)
                continue;
            if (trySpawn(w)) {
                ++unassigned;
                obs::count(&obs::Counters::workerRespawns);
            }
        }
        size_t alive = 0;
        for (auto &w : pool) {
            if (!w.alive)
                continue;
            ++alive;
            if (w.ready && w.cell == -1)
                assign(w);
        }
        if (alive == 0) {
            // every slot is dead; if any may still respawn (budget
            // left, backoff pending) wait for the earliest gate
            if (respawnBudget > 0 && sched.pending() > 0) {
                const auto now = Clock::now();
                Clock::time_point earliest{};
                bool waiting = false;
                for (const auto &w : pool) {
                    if (w.nextSpawnAt <= now)
                        continue;
                    if (!waiting || w.nextSpawnAt < earliest)
                        earliest = w.nextSpawnAt;
                    waiting = true;
                }
                if (waiting) {
                    const auto ms = std::chrono::duration_cast<
                        std::chrono::milliseconds>(earliest - now)
                        .count();
                    ::poll(nullptr, 0, static_cast<int>(ms) + 1);
                    continue;
                }
                // no slot is gated yet spawning keeps failing: fall
                // through and burn the remaining budget next rounds
                if (respawnBudget > 0)
                    continue;
            }
            // pool unrecoverable (spawn failures / budget exhausted):
            // degrade to in-process lanes for whatever is left
            // instead of erroring the cells — slower, never wrong
            if (const size_t left = sched.pending()) {
                std::cerr << "stems dispatch: worker pool "
                             "unrecoverable; running "
                          << left << " remaining cell(s) in-process\n";
                obs::count(&obs::Counters::degradedCells, left);
                driver::drainInProcess(spec, sched);
            }
            break;
        }

        if (cfg.speculate) {
            for (auto &idle : pool) {
                if (!idle.alive || !idle.ready || idle.cell != -1)
                    continue;
                const auto cell = sched.duplicate();
                if (!cell)
                    break;
                dispatchCell(idle, *cell);
            }
        }

        std::vector<pollfd> fds;
        std::vector<Worker *> fdOwner;
        for (auto &w : pool) {
            if (!w.alive)
                continue;
            fds.push_back({w.proc.fromWorker, POLLIN, 0});
            fdOwner.push_back(&w);
        }

        int timeout = -1;
        auto wakeAt = [&timeout](Clock::time_point tp,
                                 Clock::time_point now) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(tp - now)
                .count();
            const int ms = left < 0 ? 0 : static_cast<int>(left) + 1;
            if (timeout < 0 || ms < timeout)
                timeout = ms;
        };
        {
            const auto now = Clock::now();
            for (auto &w : pool) {
                if (!w.alive)
                    continue;
                if (cfg.timeoutMs > 0 && w.cell >= 0)
                    wakeAt(w.deadline, now);
                if (cfg.heartbeatMs > 0)
                    wakeAt(w.lastHeardAt +
                               std::chrono::milliseconds(
                                   kHeartbeatMissBudget *
                                   cfg.heartbeatMs),
                           now);
            }
            // dead slots gated by backoff must wake the loop too
            const bool queued = sched.pending() > 0;
            for (auto &w : pool)
                if (!w.alive && queued && w.nextSpawnAt > now)
                    wakeAt(w.nextSpawnAt, now);
            // while stragglers may be duplicated, re-evaluate them on
            // a coarse cadence
            if (cfg.speculate && !queued &&
                (timeout < 0 || timeout > 100))
                timeout = 100;
        }

        const int n = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("dispatch: poll: " +
                                     std::string(std::strerror(errno)));
        }

        for (size_t i = 0; i < fds.size(); ++i) {
            Worker &w = *fdOwner[i];
            if (!w.alive || fds[i].revents == 0)
                continue;
            char chunk[65536];
            const ssize_t r =
                ::read(w.proc.fromWorker, chunk, sizeof(chunk));
            if (r > 0) {
                obs::count(&obs::Counters::wireBytesReceived,
                           static_cast<uint64_t>(r));
                w.lastHeardAt = Clock::now();
                w.decoder.feed(chunk, static_cast<size_t>(r));
                handleFrames(w);
            } else if (r == 0 || errno != EINTR) {
                workerLost(w, "worker exited");
            }
        }

        if (cfg.timeoutMs > 0) {
            const auto now = Clock::now();
            for (auto &w : pool) {
                if (w.alive && w.cell >= 0 && now >= w.deadline)
                    workerLost(w, "cell " +
                                      std::to_string(
                                          cells[w.cell].id) +
                                      " timed out");
            }
        }

        // liveness, distinct from the per-cell timeout: a wedged
        // worker (no frames at all — a slow cell still heartbeats)
        // is killed fast and its cell re-queued
        if (cfg.heartbeatMs > 0) {
            const auto now = Clock::now();
            const auto budget = std::chrono::milliseconds(
                kHeartbeatMissBudget * cfg.heartbeatMs);
            for (auto &w : pool) {
                if (w.alive && now - w.lastHeardAt > budget) {
                    obs::count(&obs::Counters::heartbeatsMissed);
                    workerLost(w, "worker missed " +
                                      std::to_string(
                                          kHeartbeatMissBudget) +
                                      " heartbeats");
                }
            }
        }
    }

    for (auto &w : pool) {
        if (w.alive && w.proc.toWorker >= 0)
            writeFrame(w.proc.toWorker, encodeShutdown());
        reap(w);
    }
    wallMs_ = std::chrono::duration<double, std::milli>(
                  Clock::now() - runStart)
                  .count();
}

WorkerPhases
workerPhases(const WorkerStats &ws)
{
    WorkerPhases p;
    for (const auto &[name, ms] : ws.phaseMs) {
        if (name == "trace")
            p.traceMs += ms;
        else if (name == "baseline")
            p.baseMs += ms;
        else if (name == "system_study" || name == "l1_study")
            p.studyMs += ms;
        else if (name == "timing")
            p.timingMs += ms;
    }
    return p;
}

std::string
workerTable(const std::vector<WorkerStats> &stats, double wallMs)
{
    using study::TablePrinter;
    TablePrinter t({"Worker", "Cells", "Busy ms", "Util", "Trace ms",
                    "Base ms", "Study ms", "Timing ms", "RSS MB",
                    "Lost"});
    for (const auto &ws : stats) {
        const WorkerPhases p = workerPhases(ws);
        t.addRow({std::to_string(ws.pid), std::to_string(ws.cellsDone),
                  TablePrinter::fixed(ws.busyMs, 1),
                  TablePrinter::pct(wallMs > 0 ? ws.busyMs / wallMs : 0),
                  TablePrinter::fixed(p.traceMs, 1),
                  TablePrinter::fixed(p.baseMs, 1),
                  TablePrinter::fixed(p.studyMs, 1),
                  TablePrinter::fixed(p.timingMs, 1),
                  TablePrinter::fixed(
                      static_cast<double>(ws.rssKb) / 1024.0, 1),
                  std::to_string(ws.lost)});
    }
    std::ostringstream os;
    t.print(os);
    return os.str();
}

std::vector<WorkerStats>
workerStatsFromJson(const JsonValue &workers)
{
    std::vector<WorkerStats> stats;
    for (const JsonValue &w : workers.items) {
        WorkerStats &ws = stats.emplace_back();
        ws.pid = static_cast<pid_t>(w.at("pid").asU64());
        ws.cellsDone = w.at("cells").asU64();
        ws.busyMs = w.at("busy_ms").asDouble();
        ws.lost = w.at("lost").asU64();
        ws.rssKb = w.at("peak_rss_kb").asU64();
        for (const auto &[name, ms] : w.at("phases").members)
            ws.phaseMs.emplace_back(name, ms.asDouble());
    }
    return stats;
}

std::string
workerSummary(const std::vector<WorkerStats> &stats, double wallMs)
{
    std::ostringstream os;
    os << "stems dispatch: worker summary (wall "
       << study::TablePrinter::fixed(wallMs, 1) << " ms)\n"
       << workerTable(stats, wallMs);

    // fault-tolerance footer: only the families that actually fired,
    // so a clean run's summary stays unchanged
    static const char *const kFtFamilies[] = {
        "faults_injected",          "heartbeats_missed",
        "journal_cells_written",    "journal_cells_replayed",
        "degraded_cells"};
    std::string ft;
    for (const auto &[name, value] : obs::snapshotCounters()) {
        if (value == 0)
            continue;
        for (const char *family : kFtFamilies) {
            if (name == family) {
                if (!ft.empty())
                    ft += ", ";
                ft += name;
                ft += '=';
                ft += std::to_string(value);
            }
        }
    }
    if (!ft.empty())
        os << "stems dispatch: fault tolerance: " << ft << "\n";
    return os.str();
}

std::string
telemetryJson(double wallMs, const std::vector<WorkerStats> &workers)
{
    auto counters = obs::snapshotCounters();
    for (const auto &ws : workers)
        for (const auto &[name, count] : ws.counters)
            for (auto &[localName, total] : counters)
                if (localName == name)
                    total += count;

    driver::JsonWriter j;
    j.beginObject();
    j.key("telemetry").beginObject();
    j.key("schema").value(uint64_t{2});
    j.key("wall_ms").value(wallMs);
    j.key("peak_rss_kb").value(obs::peakRssKb());
    j.key("counters").beginObject();
    for (const auto &[name, count] : counters)
        j.key(name).value(count);
    j.endObject();
    // schema 2: log2-bucketed latency distributions (bucket index is
    // bit_width of the µs sample; sparse — zero buckets omitted)
    j.key("histograms").beginObject();
    for (const auto &h : obs::snapshotHistograms()) {
        j.key(h.name).beginObject();
        j.key("count").value(h.count);
        j.key("sum_us").value(h.sum);
        j.key("buckets").beginObject();
        for (const auto &[idx, n] : h.buckets)
            j.key(std::to_string(idx)).value(n);
        j.endObject();
        j.endObject();
    }
    j.endObject();
    j.key("workers").beginArray();
    for (const auto &ws : workers) {
        j.beginObject();
        j.key("pid").value(static_cast<uint64_t>(ws.pid));
        j.key("cells").value(ws.cellsDone);
        j.key("busy_ms").value(ws.busyMs);
        j.key("lost").value(ws.lost);
        j.key("peak_rss_kb").value(ws.rssKb);
        j.key("phases").beginObject();
        for (const auto &[name, ms] : ws.phaseMs)
            j.key(name).value(ms);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.endObject();
    j.endObject();
    return j.str() + "\n";
}

} // namespace stems::dispatch
