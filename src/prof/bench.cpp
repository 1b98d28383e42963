#include "prof/bench.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "support/statistics.h"
#include "vm/runtime/vm_error.h"

namespace jrs::prof {

namespace {

using obs::JsonParser;
using obs::jsonEscape;
using obs::jsonNumber;

double
numField(const JsonParser::Value &obj, const char *name)
{
    const JsonParser::Value *f = obj.field(name);
    if (f == nullptr || f->kind != JsonParser::Value::Number)
        throw VmError(std::string("jrs-bench-v1: missing numeric "
                                  "field \"") +
                      name + "\"");
    return f->num;
}

/**
 * Only regular files are read: a device or FIFO opens fine but may
 * never end (/dev/zero streams zeros until memory runs out).
 */
bool
isRegularFile(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec);
}

} // namespace

double
BenchRun::metric(const std::string &name, double fallback) const
{
    for (const auto &m : metrics) {
        if (m.first == name)
            return m.second;
    }
    return fallback;
}

const BenchRun *
BenchReport::find(const std::string &label) const
{
    for (const BenchRun &r : runs) {
        if (r.label == label)
            return &r;
    }
    return nullptr;
}

void
BenchReport::upsert(BenchRun run)
{
    for (BenchRun &r : runs) {
        if (r.label == run.label) {
            r = std::move(run);
            return;
        }
    }
    runs.push_back(std::move(run));
}

std::string
BenchReport::toJson() const
{
    std::vector<const BenchRun *> sorted;
    sorted.reserve(runs.size());
    for (const BenchRun &r : runs)
        sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const BenchRun *a, const BenchRun *b) {
                  return a->label < b->label;
              });

    std::ostringstream os;
    os << "{\n  \"schema\": \"jrs-bench-v1\",\n";
    os << "  \"suite\": \"" << jsonEscape(suite) << "\",\n";
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const BenchRun &r = *sorted[i];
        os << "    {\"label\": \"" << jsonEscape(r.label)
           << "\", \"events\": " << r.events
           << ", \"wall_seconds\": " << jsonNumber(r.wallSeconds)
           << ", \"events_per_sec\": " << jsonNumber(r.eventsPerSec)
           << ", \"peak_rss_bytes\": " << r.peakRssBytes;
        if (!r.metrics.empty()) {
            os << ", \"metrics\": {";
            std::vector<std::pair<std::string, double>> ms =
                r.metrics;
            std::sort(ms.begin(), ms.end());
            for (std::size_t m = 0; m < ms.size(); ++m) {
                if (m > 0)
                    os << ", ";
                os << '"' << jsonEscape(ms[m].first)
                   << "\": " << jsonNumber(ms[m].second);
            }
            os << '}';
        }
        os << '}' << (i + 1 < sorted.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    return os.str();
}

void
BenchReport::writeJson(const std::string &path) const
{
    obs::writeFile(path, toJson(), "bench report");
}

BenchReport
BenchReport::parse(const std::string &json)
{
    const JsonParser::Value doc =
        JsonParser(json, "jrs-bench-v1").parse();
    if (doc.kind != JsonParser::Value::Object)
        throw VmError("jrs-bench-v1: document is not an object");
    const JsonParser::Value *schema = doc.field("schema");
    if (schema == nullptr || schema->str != "jrs-bench-v1")
        throw VmError("jrs-bench-v1: bad or missing schema field");

    BenchReport rep;
    if (const JsonParser::Value *suite = doc.field("suite"))
        rep.suite = suite->str;
    const JsonParser::Value *runs = doc.field("runs");
    if (runs == nullptr || runs->kind != JsonParser::Value::Array)
        throw VmError("jrs-bench-v1: missing runs array");
    for (const JsonParser::Value &rv : runs->items) {
        if (rv.kind != JsonParser::Value::Object)
            throw VmError("jrs-bench-v1: run is not an object");
        BenchRun r;
        const JsonParser::Value *label = rv.field("label");
        if (label == nullptr ||
            label->kind != JsonParser::Value::String)
            throw VmError("jrs-bench-v1: run without a label");
        r.label = label->str;
        r.events = static_cast<std::uint64_t>(numField(rv, "events"));
        r.wallSeconds = numField(rv, "wall_seconds");
        r.eventsPerSec = numField(rv, "events_per_sec");
        r.peakRssBytes =
            static_cast<std::uint64_t>(numField(rv, "peak_rss_bytes"));
        if (const JsonParser::Value *ms = rv.field("metrics")) {
            for (const auto &f : ms->fields)
                r.metrics.emplace_back(f.first, f.second.num);
        }
        rep.runs.push_back(std::move(r));
    }
    return rep;
}

BenchReport
BenchReport::load(const std::string &path)
{
    if (!isRegularFile(path))
        throw VmError("bench report is not a regular file: " + path);
    std::ifstream f(path);
    if (!f)
        throw VmError("cannot read bench report: " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return parse(os.str());
}

BenchReport
BenchReport::loadOrEmpty(const std::string &path,
                         const std::string &suite)
{
    if (isRegularFile(path)) {
        try {
            BenchReport rep = load(path);
            if (rep.suite == suite)
                return rep;
        } catch (const VmError &) {
            // Old-schema or corrupt file: start the trajectory over.
        }
    }
    BenchReport rep;
    rep.suite = suite;
    return rep;
}

CompareResult
compareReports(const BenchReport &baseline, const BenchReport &current,
               double maxRegressPct)
{
    CompareResult out;
    std::map<std::string, const BenchRun *> base;
    for (const BenchRun &r : baseline.runs)
        base[r.label] = &r;
    std::map<std::string, const BenchRun *> cur;
    for (const BenchRun &r : current.runs)
        cur[r.label] = &r;

    for (const auto &[label, b] : base) {
        const auto it = cur.find(label);
        if (it == cur.end()) {
            out.onlyBaseline.push_back(label);
            continue;
        }
        CompareRow row;
        row.label = label;
        row.baseline = b->eventsPerSec;
        row.current = it->second->eventsPerSec;
        row.deltaPct =
            row.baseline == 0
                ? 0
                : (row.current - row.baseline) / row.baseline * 100.0;
        row.regressed = row.deltaPct < -maxRegressPct;
        out.worstDeltaPct = std::min(out.worstDeltaPct, row.deltaPct);
        out.failed = out.failed || row.regressed;
        out.rows.push_back(std::move(row));
    }
    for (const auto &[label, c] : cur) {
        (void)c;
        if (base.find(label) == base.end())
            out.onlyCurrent.push_back(label);
    }
    return out;
}

std::string
CompareResult::text(double maxRegressPct) const
{
    std::ostringstream os;
    for (const CompareRow &r : rows) {
        os << (r.regressed ? "REGRESS " : "ok      ") << r.label
           << ": " << fixed(r.baseline / 1e6, 2) << "M/s -> "
           << fixed(r.current / 1e6, 2) << "M/s ("
           << (r.deltaPct >= 0 ? "+" : "") << fixed(r.deltaPct, 1)
           << "%)\n";
    }
    for (const std::string &l : onlyBaseline)
        os << "missing " << l << " (present only in baseline)\n";
    for (const std::string &l : onlyCurrent)
        os << "new     " << l << " (no baseline)\n";
    os << (failed ? "FAIL" : "PASS") << ": worst delta "
       << (worstDeltaPct >= 0 ? "+" : "") << fixed(worstDeltaPct, 1)
       << "% against a -" << fixed(maxRegressPct, 0)
       << "% threshold\n";
    return os.str();
}

} // namespace jrs::prof
