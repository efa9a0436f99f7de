#include "sim/journal.hh"

#include <filesystem>
#include <fstream>

#include "common/json.hh"
#include "common/logging.hh"

#include <sys/file.h>

namespace catchsim
{

SuiteJournal::~SuiteJournal()
{
    if (file_)
        std::fclose(file_);
}

Expected<std::unique_ptr<SuiteJournal>>
SuiteJournal::open(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        return simError(ErrorCategory::Config, "cannot create journal "
                        "directory '", dir, "': ", ec.message());
    }

    // make_unique cannot reach the private ctor.
    std::unique_ptr<SuiteJournal> j(new SuiteJournal); // catch-lint: allow(raw-new-delete)
    j->path_ = dir + "/journal.jsonl";

    // Load whatever a previous campaign left behind. A truncated last
    // line (killed process) fails to parse and is skipped.
    std::ifstream in(j->path_);
    if (in.is_open()) {
        std::string line;
        size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            if (line.empty())
                continue;
            if (auto e = parseRecord(line, j->path_, lineno))
                j->entries_.push_back(std::move(*e));
        }
    }

    j->file_ = std::fopen(j->path_.c_str(), "a");
    if (!j->file_) {
        return simError(ErrorCategory::Config, "cannot open journal '",
                        j->path_, "' for appending");
    }
    // Two campaigns appending to one journal would interleave records
    // and corrupt each other's resume sets; fail the second fast. The
    // lock lives for the FILE's lifetime (fclose releases it).
    if (::flock(fileno(j->file_), LOCK_EX | LOCK_NB) != 0) {
        return simError(ErrorCategory::Config, "journal '", j->path_,
                        "' is locked by another campaign");
    }
    if (!j->entries_.empty())
        inform("journal '", j->path_, "': ", j->entries_.size(),
               " finished run(s) available for resume");
    return j;
}

std::optional<SuiteJournal::Entry>
SuiteJournal::parseRecord(const std::string &line,
                          const std::string &path, size_t lineno)
{
    auto parsed = parseJson(line);
    if (!parsed.ok()) {
        warn("journal '", path, "' line ", lineno,
             ": skipping unparsable record (",
             parsed.error().message, ")");
        return std::nullopt;
    }
    JsonReader r(parsed.value(), ErrorCategory::TraceCorrupt,
                 "journal record");
    SuiteJournal::Entry e;
    r.field("config", e.config);
    r.field("workload", e.workload);
    r.field("instrs", e.instrs);
    r.field("warmup", e.warmup);
    r.field("status", e.status);
    if (r.error()) {
        warn("journal '", path, "' line ", lineno, ": skipping record (",
             r.error()->message, ")");
        return std::nullopt;
    }
    // Failure records document history; only successes are resumable.
    if (e.status != RunStatus::Ok && e.status != RunStatus::Retried)
        return std::nullopt;
    const JsonValue *result = r.raw("result", JsonValue::Kind::Object);
    if (!result) {
        warn("journal '", path, "' line ", lineno,
             ": skipping success record without a result");
        return std::nullopt;
    }
    auto sim = SimResult::fromJson(*result);
    if (!sim.ok()) {
        warn("journal '", path, "' line ", lineno,
             ": skipping record with bad result (",
             sim.error().message, ")");
        return std::nullopt;
    }
    e.result = std::move(sim).value();
    return e;
}

const SimResult *
SuiteJournal::find(const std::string &config, const std::string &workload,
                   uint64_t instrs, uint64_t warmup,
                   RunStatus *status) const
{
    // Scan back-to-front so the newest record of a rerun wins.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (it->config == config && it->workload == workload &&
            it->instrs == instrs && it->warmup == warmup) {
            if (status)
                *status = it->status;
            return &it->result;
        }
    }
    return nullptr;
}

void
SuiteJournal::append(const RunOutcome &out, uint64_t instrs,
                     uint64_t warmup)
{
    JsonWriter w;
    w.open();
    w.field("config", out.config);
    w.field("workload", out.workload);
    w.field("instrs", instrs);
    w.field("warmup", warmup);
    w.field("status", out.status);
    w.field("attempts", out.attempts);
    if (out.ok()) {
        w.rawField("result", out.result.toJson());
    } else {
        fieldObject(w, "error", out.failure->error);
    }
    w.close();

    std::lock_guard<std::mutex> lock(mu_);
    if (std::fprintf(file_, "%s\n", w.str().c_str()) < 0 ||
        std::fflush(file_) != 0) {
        warn("journal '", path_, "': write failed; record for '",
             out.workload, "' lost");
    }
}

} // namespace catchsim
