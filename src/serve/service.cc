#include "serve/service.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <unistd.h>

#include "dispatch/journal.hh"
#include "driver/report.hh"
#include "driver/scheduler.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"

namespace stems::serve {

namespace fs = std::filesystem;

/** One submission's full lifetime: queued → active → done. */
struct ExperimentService::Request
{
    explicit Request(driver::ExperimentSpec s)
        : spec(std::move(s)), sched(spec)
    {
    }

    uint64_t id = 0;
    driver::ExperimentSpec spec;
    driver::CellScheduler sched;

    dispatch::RunJournal journal;
    std::string journalFile;
    uint64_t replayed = 0;

    bool activeNow = false;
    uint64_t enqueuedNs = 0;
    uint64_t activatedNs = 0;
    double queueMs = 0;
};

namespace {

/** A fresh temporary spill directory, or "" when none can be made. */
std::string
makeSpillDir()
{
    std::string tmpl = fs::temp_directory_path() / "stems-serve-XXXXXX";
    return ::mkdtemp(tmpl.data()) != nullptr ? tmpl : std::string();
}

} // anonymous namespace

ExperimentService::ExperimentService(Config config)
    : cfg(std::move(config)),
      ownedTraceDir(cfg.traceDir.empty() ? makeSpillDir() : ""),
      executor({cfg.traceDir.empty() ? ownedTraceDir : cfg.traceDir}),
      lanes(cfg.fleet, "serve", "serve-warmer")
{
    if (!cfg.journalDir.empty()) {
        std::error_code ec;
        fs::create_directories(cfg.journalDir, ec);
    }
}

ExperimentService::~ExperimentService()
{
    stop();
    if (!ownedTraceDir.empty()) {
        std::error_code ec;
        fs::remove_all(ownedTraceDir, ec);
    }
}

size_t
ExperimentService::activeRequests() const
{
    std::lock_guard<std::mutex> lk(mu);
    return active.size();
}

void
ExperimentService::activateLocked()
{
    while (!stopping && !queued.empty() &&
           active.size() < cfg.maxActive) {
        std::shared_ptr<Request> req = queued.front();
        queued.pop_front();
        req->activeNow = true;
        req->activatedNs = obs::monotonicNs();
        req->queueMs =
            static_cast<double>(req->activatedNs - req->enqueuedNs) /
            1e6;
        obs::count(&obs::Counters::serveRequestsAdmitted);

        // warm restart: seed this spec's surviving journal before any
        // cell is claimed (resume-style open creates the file fresh
        // when there is nothing to replay)
        if (!cfg.journalDir.empty()) {
            const uint64_t fp =
                dispatch::specFingerprint(req->sched.cells());
            char hex[24];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(fp));
            req->journalFile =
                cfg.journalDir + "/req-" + hex + ".journal";
            try {
                req->journal.open(req->journalFile, fp,
                                  req->sched.cells().size(), true);
            } catch (const std::exception &e) {
                std::cerr << "stems serve: journal disabled for "
                             "request "
                          << req->id << ": " << e.what() << "\n";
            }
            req->replayed = req->sched.seed(req->journal.replayed());
        }

        // warm-cache visibility: cells whose trace is already built
        // (a prior request generated or mapped it) are warm hits
        const auto &cells = req->sched.cells();
        for (size_t i = 0; i < cells.size(); ++i)
            if (!req->sched.done(i) && executor.prepared(cells[i]))
                obs::count(&obs::Counters::serveCacheWarmHits);

        // attaching here, under mu, keeps the pool's claim order the
        // admission order: the earliest-admitted request goes first
        lanes.attach(req->sched, executor, std::to_string(req->id));
        active.push_back(std::move(req));
    }
}

ExperimentService::Outcome
ExperimentService::submit(
    const std::vector<std::string> &tokens,
    const std::function<void(uint64_t)> &onAdmitted)
{
    Outcome out;

    std::shared_ptr<Request> req;
    try {
        driver::ExperimentSpec spec = driver::parseSpec(tokens);
        // mirror cmdRun's defaulting so report bytes cannot depend
        // on which side applied it
        if (spec.jsonPath.empty() && spec.csvPath.empty() && !spec.table)
            spec.jsonPath = "-";
        req = std::make_shared<Request>(std::move(spec));
    } catch (const std::exception &e) {
        out.status = Outcome::Status::Error;
        out.reason = e.what();
        return out;
    }
    if (req->sched.cells().empty()) {
        out.status = Outcome::Status::Error;
        out.reason = "spec selects no cells";
        return out;
    }
    // the hook runs serialized, after the result is placed
    req->sched.onComplete(
        [journal = &req->journal](const driver::CellResult &r, size_t,
                                  size_t) { journal->append(r); });

    {
        std::unique_lock<std::mutex> lk(mu);
        if (stopping) {
            out.status = Outcome::Status::Error;
            out.reason = "service stopped";
            return out;
        }
        if (active.size() >= cfg.maxActive &&
            queued.size() >= cfg.maxQueued) {
            obs::count(&obs::Counters::serveRequestsRejected);
            out.status = Outcome::Status::Rejected;
            out.reason = "admission queue full (" +
                         std::to_string(active.size()) + " active, " +
                         std::to_string(queued.size()) +
                         " queued; max-active=" +
                         std::to_string(cfg.maxActive) +
                         " max-queue=" +
                         std::to_string(cfg.maxQueued) + ")";
            return out;
        }
        req->id = ++nextId;
        req->enqueuedNs = obs::monotonicNs();
        if (active.size() >= cfg.maxActive)
            obs::count(&obs::Counters::serveRequestsQueued);
        queued.push_back(req);
        activateLocked();
        stateCv.wait(lk, [&] { return req->activeNow || stopping; });
        bool finished = false;
        if (req->activeNow) {
            lk.unlock();
            if (onAdmitted)
                onAdmitted(req->id);
            // false once stop() has stopped the lanes
            finished = lanes.wait(req->sched);
            lk.lock();
        }
        if (!finished) {
            out.status = Outcome::Status::Error;
            out.reason = "service stopped";
            out.id = req->id;
            return out;
        }
        active.erase(
            std::remove(active.begin(), active.end(), req),
            active.end());
        activateLocked();
        stateCv.notify_all();
    }

    // the request span covers activation → completion; queue_ms is
    // the admission wait (stems analyze attributes both)
    if (obs::Recorder::get().enabled()) {
        obs::Event e;
        e.name = "serve_request";
        e.phase = 'X';
        e.tsNs = req->activatedNs;
        e.durNs = obs::monotonicNs() - req->activatedNs;
        e.args = {{"request", std::to_string(req->id)},
                  {"queue_ms", std::to_string(req->queueMs)},
                  {"cells", std::to_string(req->sched.cells().size())},
                  {"replayed", std::to_string(req->replayed)}};
        obs::Recorder::get().record(std::move(e));
    }

    // the report is durable once built; drop the journal so a future
    // identical submission starts clean
    req->journal.close();
    if (!req->journalFile.empty()) {
        std::error_code ec;
        fs::remove(req->journalFile, ec);
    }

    out.status = Outcome::Status::Done;
    out.id = req->id;
    out.replayed = req->replayed;
    const std::vector<driver::CellResult> results =
        req->sched.takeResults();
    for (const auto &r : results)
        if (!r.error.empty())
            ++out.failed;
    // the same sinks stems run would write, built from the same spec
    // and the same ordered results — byte-identity by construction
    if (!req->spec.jsonPath.empty())
        out.json = driver::toJson(req->spec, results);
    if (!req->spec.csvPath.empty())
        out.csv = driver::toCsv(req->spec, results);
    if (req->spec.table)
        out.table = driver::toTable(req->spec, results);
    return out;
}

void
ExperimentService::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (stopping)
            return;
        stopping = true;
        queued.clear();
    }
    stateCv.notify_all();
    lanes.stop();
}

} // namespace stems::serve
