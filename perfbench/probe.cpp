/**
 * @file
 * perfbench_probe: the compiled half of the TraceLens benchmark
 * (perfbench/run.py drives it; see perfbench/README.md).
 *
 *   perfbench_probe load      --port P --plan FILE --out FILE
 *                             [--trace 0|1] [--trace-base N]
 *                             [--max-late-ms MS]
 *   perfbench_probe reference --corpus DIR --requests FILE --out FILE
 *   perfbench_probe layers    --corpus DIR --scenario NAME
 *                             --tfast MS --tslow MS --spans FILE
 *                             --fleet-spool DIR
 *
 * `load` replays an open-loop plan against one daemon over protocol
 * v2: each plan line names its connection, and every connection is
 * one thread that sends each request at its scheduled time (or as
 * soon as its previous response is in) and records scheduled, sent
 * and done times, so run.py can time latency from the schedule and
 * see how late the generator itself ran. With --max-late-ms, a
 * connection that falls that far behind its schedule stops sending
 * (the rest of its plan stays "not_sent"): the rate is beyond what
 * the connections can offer.
 *
 * `reference` answers analyze requests in process (Analyzer +
 * summarizeScenario) and prints one result digest per request, the
 * oracle the daemon's answers are compared with.
 *
 * `layers` times the public entry point of every module on one
 * corpus, from outside the program: no span is added inside src/.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/awg/awg.h"
#include "src/core/analyzer.h"
#include "src/core/partial.h"
#include "src/core/resultjson.h"
#include "src/fleet/service.h"
#include "src/impact/impact.h"
#include "src/mining/miner.h"
#include "src/server/client.h"
#include "src/server/coordinator.h"
#include "src/server/server.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/scenarios.h"

namespace fs = std::filesystem;
using namespace tracelens;
using namespace tracelens::server;
using Clock = std::chrono::steady_clock;

namespace
{

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
    std::exit(2);
}

/** `--key value` pairs after the subcommand. */
std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            die("expected --key value pairs, got '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    return args;
}

const std::string &
need(const std::map<std::string, std::string> &args,
     const std::string &key)
{
    auto it = args.find(key);
    if (it == args.end())
        die("missing --" + key);
    return it->second;
}

/** FNV-1a 64 of @p text as 16 hex digits: compares answers by bytes. */
std::string
digestHex(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text)
        hash = (hash ^ c) * 0x100000001b3ULL;
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
}

std::int64_t
microsSince(Clock::time_point origin)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - origin)
        .count();
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t tab = line.find('\t', start);
        fields.push_back(line.substr(start, tab - start));
        if (tab == std::string::npos)
            return fields;
        start = tab + 1;
    }
}

// ------------------------------------------------------------- load

struct PlanItem
{
    std::int64_t offsetUs = 0;
    unsigned conn = 0;
    std::string cls;
    Method method = Method::Health;
    JsonValue params;
};

struct Outcome
{
    std::int64_t sendUs = -1;
    std::int64_t doneUs = -1;
    std::string status = "not_sent";
    std::string digest = "-";
    std::uint64_t bytes = 0;
};

std::vector<PlanItem>
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read plan " + path);
    std::vector<PlanItem> plan;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> f = splitTabs(line);
        if (f.size() != 5)
            die("plan line needs 5 tab-separated fields: " + line);
        PlanItem item;
        item.offsetUs = std::stoll(f[0]);
        item.conn = static_cast<unsigned>(std::stoul(f[1]));
        item.cls = f[2];
        const auto method = parseMethod(f[3]);
        if (!method)
            die("unknown method " + f[3]);
        item.method = *method;
        Expected<JsonValue> params = JsonValue::parse(f[4]);
        if (!params || !params.value().isObject())
            die("bad params on plan line: " + line);
        item.params = std::move(params.value());
        plan.push_back(std::move(item));
    }
    return plan;
}

SessionOptions
sessionOptions(bool trace)
{
    SessionOptions options;
    options.prefer = ProtocolPreference::V2;
    options.ioTimeout = std::chrono::milliseconds(60000);
    options.tracing = trace;
    return options;
}

int
runLoad(const std::map<std::string, std::string> &args)
{
    const auto port =
        static_cast<std::uint16_t>(std::stoul(need(args, "port")));
    const bool trace = args.count("trace") && args.at("trace") == "1";
    const std::uint64_t traceBase =
        args.count("trace-base") ? std::stoull(args.at("trace-base")) : 0;
    const std::int64_t maxLateUs =
        args.count("max-late-ms") ? std::stoll(args.at("max-late-ms")) * 1000
                                  : -1;
    const std::vector<PlanItem> plan = readPlan(need(args, "plan"));

    unsigned connections = 0;
    for (const PlanItem &item : plan)
        connections = std::max(connections, item.conn + 1);
    const unsigned limit = std::max(1u, std::thread::hardware_concurrency());
    if (connections > limit)
        die("plan uses more connections than hardware threads");

    std::vector<std::vector<std::size_t>> perConn(connections);
    for (std::size_t i = 0; i < plan.size(); ++i)
        perConn[plan[i].conn].push_back(i);
    for (auto &indices : perConn)
        std::stable_sort(indices.begin(), indices.end(),
                         [&](std::size_t a, std::size_t b) {
                             return plan[a].offsetUs < plan[b].offsetUs;
                         });

    std::vector<Session> sessions;
    for (unsigned c = 0; c < connections; ++c) {
        Expected<Session> s =
            Session::connect("127.0.0.1", port, sessionOptions(trace));
        if (!s)
            die("connect: " + s.error().render());
        sessions.push_back(std::move(s.value()));
    }

    std::vector<Outcome> outcomes(plan.size());
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(50);

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            Session &session = sessions[c];
            for (std::size_t index : perConn[c]) {
                const PlanItem &item = plan[index];
                Outcome &out = outcomes[index];
                std::this_thread::sleep_until(
                    start + std::chrono::microseconds(item.offsetUs));
                const std::int64_t sendUs = microsSince(start);
                if (maxLateUs >= 0 && sendUs - item.offsetUs > maxLateUs)
                    break;
                CallOptions call;
                call.deadlineMs = 30000;
                if (trace)
                    call.traceContext = {traceBase + index + 1, 0, true};
                out.sendUs = sendUs;
                Expected<Response> response =
                    session.call(item.method, item.params, call);
                out.doneUs = microsSince(start);
                if (!response) {
                    out.status = "transport";
                    continue;
                }
                if (!response.value().ok) {
                    out.status = std::string(
                        errorCodeName(response.value().error.code));
                    continue;
                }
                out.status = "ok";
                const JsonValue &result = response.value().result;
                const JsonValue *summary = result.find("summary");
                const std::string rendered =
                    summary ? summary->render() : result.render();
                out.digest = digestHex(rendered);
                out.bytes = rendered.size();
            }
        });
    }

    for (std::thread &thread : threads)
        thread.join();

    std::ofstream out(need(args, "out"));
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const Outcome &o = outcomes[i];
        out << i << '\t' << plan[i].conn << '\t' << plan[i].cls << '\t'
            << plan[i].offsetUs << '\t' << o.sendUs << '\t' << o.doneUs
            << '\t' << o.status << '\t' << o.digest << '\t' << o.bytes
            << '\n';
    }
    WireStats wire;
    for (const Session &session : sessions) {
        const WireStats s = session.wireStats();
        wire.bytesSent += s.bytesSent;
        wire.bytesReceived += s.bytesReceived;
        wire.framesSent += s.framesSent;
        wire.framesReceived += s.framesReceived;
    }
    JsonValue summary = JsonValue::makeObject();
    summary.set("connections", JsonValue(connections));
    summary.set("bytes_sent", JsonValue(wire.bytesSent));
    summary.set("bytes_received", JsonValue(wire.bytesReceived));
    summary.set("frames_sent", JsonValue(wire.framesSent));
    summary.set("frames_received", JsonValue(wire.framesReceived));
    std::cout << summary.render() << "\n";
    return 0;
}

// -------------------------------------------------------- reference

/** The catalog thresholds, as the server resolves absent params. */
void
catalogThresholds(const std::string &scenario, DurationNs &tFast,
                  DurationNs &tSlow)
{
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == scenario) {
            tFast = spec.tFast;
            tSlow = spec.tSlow;
        }
    }
}

std::unique_ptr<TraceSource>
openOrDie(const std::string &path)
{
    Expected<std::unique_ptr<TraceSource>> source = openSource(path);
    if (!source)
        die("open " + path + ": " + source.error().render());
    return std::move(source.value());
}

JsonValue
referenceSummary(const Analyzer &analyzer, const std::string &scenario,
                 DurationNs tFast, DurationNs tSlow)
{
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(scenario, tFast, tSlow);
    PartialClasses classes;
    classes.fast = analysis.classes.fast.size();
    classes.middle = analysis.classes.middle.size();
    classes.slow = analysis.classes.slow.size();
    classes.slowDuration = analysis.slowDuration;
    return summarizeScenario(scenario, tFast, tSlow, classes,
                             analysis.slowImpact, analysis.awgFast,
                             analysis.awgSlow,
                             analyzer.corpus().symbols(), 5, true)
        .json;
}

int
runReference(const std::map<std::string, std::string> &args)
{
    std::unique_ptr<TraceSource> source =
        openOrDie(need(args, "corpus"));
    Analyzer analyzer(*source);
    std::ifstream in(need(args, "requests"));
    std::ofstream out(need(args, "out"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> f = splitTabs(line);
        if (f.size() != 3)
            die("reference line needs scenario, tfast_ms, tslow_ms");
        DurationNs tFast = 0, tSlow = 0;
        catalogThresholds(f[0], tFast, tSlow);
        if (!f[1].empty())
            tFast = fromMs(std::stod(f[1]));
        if (!f[2].empty())
            tSlow = fromMs(std::stod(f[2]));
        out << line << '\t'
            << digestHex(
                   referenceSummary(analyzer, f[0], tFast, tSlow).render())
            << '\n';
    }
    return 0;
}

// ----------------------------------------------------------- layers

/**
 * Spans kept in memory and written out at the end: name, start, end
 * (microseconds since the probe started) and parent index.
 */
class SpanLog
{
  public:
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name) : log_(log)
        {
            index_ = log_.spans_.size();
            log_.spans_.push_back({std::move(name),
                                   log_.stack_.empty() ? -1
                                                       : log_.stack_.back(),
                                   microsSince(log_.origin_), -1});
            log_.stack_.push_back(static_cast<long>(index_));
        }
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close now; returns the span's duration in milliseconds. */
        double
        close()
        {
            SpanRec &rec = log_.spans_[index_];
            if (rec.endUs < 0) {
                rec.endUs = microsSince(log_.origin_);
                log_.stack_.pop_back();
            }
            return static_cast<double>(rec.endUs - rec.startUs) / 1000.0;
        }

      private:
        SpanLog &log_;
        std::size_t index_ = 0;
    };

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const SpanRec &s : spans_)
            out << s.name << '\t' << s.parent << '\t' << s.startUs << '\t'
                << s.endUs << '\n';
    }

  private:
    struct SpanRec
    {
        std::string name;
        long parent = -1;
        std::int64_t startUs = 0;
        std::int64_t endUs = -1;
    };
    Clock::time_point origin_ = Clock::now();
    std::vector<SpanRec> spans_;
    std::vector<long> stack_;
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Each layer timing is the median of this many runs. */
constexpr unsigned kRepeats = 3;

/** Median milliseconds of kRepeats runs of @p fn, each one a span. */
template <typename Fn>
double
timed(SpanLog &log, const std::string &name, Fn &&fn)
{
    std::vector<double> samples;
    for (unsigned r = 0; r < kRepeats; ++r) {
        SpanLog::Scope span(log, name);
        fn(r);
        samples.push_back(span.close());
    }
    return median(samples);
}

std::vector<WaitGraph>
gatherGraphs(const std::vector<WaitGraph> &all,
             const std::vector<std::uint32_t> &indices)
{
    std::vector<WaitGraph> subset;
    subset.reserve(indices.size());
    for (std::uint32_t i : indices)
        subset.push_back(all[i]);
    return subset;
}

int
runLayers(const std::map<std::string, std::string> &args)
{
    const std::string corpusPath = need(args, "corpus");
    const std::string scenario = need(args, "scenario");
    const double tFastMs = std::stod(need(args, "tfast"));
    const double tSlowMs = std::stod(need(args, "tslow"));
    const DurationNs tFast = fromMs(tFastMs);
    const DurationNs tSlow = fromMs(tSlowMs);
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    const NameFilter components(AnalyzerConfig{}.components);

    SpanLog log;
    JsonValue m = JsonValue::makeObject();
    auto put = [&](const std::string &name, double value) {
        m.set(name, JsonValue(value));
    };

    // trace: open the sharded corpus and materialize every shard.
    std::uintmax_t corpusBytes = 0;
    std::vector<std::string> shardFiles;
    for (const auto &entry : fs::directory_iterator(corpusPath)) {
        if (entry.path().extension() == ".tlc") {
            corpusBytes += entry.file_size();
            shardFiles.push_back(entry.path().string());
        }
    }
    std::sort(shardFiles.begin(), shardFiles.end());
    std::unique_ptr<TraceSource> source;
    const double decodeMs = timed(log, "trace.decode", [&](unsigned) {
        source = openOrDie(corpusPath);
        source->corpus();
    });
    const TraceCorpus &corpus = source->corpus();
    put("trace.decode_ms", decodeMs);
    put("trace.decode_mb_per_s",
        static_cast<double>(corpusBytes) / 1e6 / (decodeMs / 1000.0));
    put("trace.events", static_cast<double>(corpus.totalEvents()));

    // waitgraph: serial and parallel builds of every instance graph.
    const WaitGraphBuilder builder(corpus);
    std::vector<WaitGraph> graphs;
    put("waitgraph.build_ms",
        timed(log, "waitgraph.build",
              [&](unsigned) { graphs = builder.buildAll(); }));
    put("waitgraph.build_parallel_ms",
        timed(log, "waitgraph.build_parallel", [&](unsigned) {
            graphs = builder.buildAllParallel(threads);
        }));
    put("waitgraph.graphs", static_cast<double>(graphs.size()));

    // impact: corpus-wide analysis over the prebuilt graphs.
    const ImpactAnalysis impact(corpus, components);
    ImpactResult impactAll;
    put("impact.analyze_ms",
        timed(log, "impact.analyze", [&](unsigned) {
            impactAll = impact.analyze(graphs, threads);
        }));

    // awg + mining: the scenario's contrast classes, as the pipeline
    // aggregates and mines them.
    Analyzer analyzer(*source);
    const std::uint32_t scenarioId = corpus.findScenario(scenario);
    if (scenarioId == UINT32_MAX)
        die("scenario " + scenario + " not in corpus");
    const ContrastClasses classes =
        analyzer.classify(scenarioId, tFast, tSlow);
    const std::vector<WaitGraph> fastGraphs =
        gatherGraphs(graphs, classes.fast);
    const std::vector<WaitGraph> slowGraphs =
        gatherGraphs(graphs, classes.slow);
    const AwgBuilder awgBuilder(corpus, components);
    AggregatedWaitGraph awgFast, awgSlow;
    put("awg.aggregate_ms",
        timed(log, "awg.aggregate", [&](unsigned) {
            awgFast = awgBuilder.aggregate(fastGraphs, threads);
            awgSlow = awgBuilder.aggregate(slowGraphs, threads);
        }));
    put("awg.nodes",
        static_cast<double>(awgFast.nodes().size() + awgSlow.nodes().size()));
    MiningOptions miningOptions;
    miningOptions.tFast = tFast;
    miningOptions.tSlow = tSlow;
    const ContrastMiner miner(corpus, miningOptions);
    MiningResult mining;
    put("mining.mine_ms", timed(log, "mining.mine", [&](unsigned) {
            mining = miner.mine(awgFast, awgSlow, threads);
        }));
    put("mining.patterns", static_cast<double>(mining.patterns.size()));

    // core: warm analyzeScenario (graphs cached, fresh thresholds each
    // time, like an explore), the result render, and the partial path.
    analyzer.impactAll();
    put("core.analyze_scenario_ms",
        timed(log, "core.analyze_scenario", [&](unsigned r) {
            analyzer.analyzeScenario(scenario, tFast + (r + 1) * 1000,
                                     tSlow + (r + 1) * 1000);
        }));
    // Tiny operations are timed over many rounds, so the timing is not
    // a clock tick.
    constexpr unsigned kRounds = 50;
    std::string impactBody;
    put("core.render_us",
        1000.0 / kRounds *
            timed(log, "core.render", [&](unsigned) {
                for (unsigned round = 0; round < kRounds; ++round)
                    impactBody = impactJson(impactAll).render();
            }));

    std::vector<std::string> encoded(shardFiles.size());
    std::vector<std::unique_ptr<TraceSource>> shardSources;
    std::vector<std::unique_ptr<Analyzer>> shardAnalyzers;
    std::vector<ScenarioPartial> partials;
    for (const std::string &file : shardFiles) {
        shardSources.push_back(openOrDie(file));
        shardAnalyzers.push_back(
            std::make_unique<Analyzer>(*shardSources.back()));
        partials.push_back(
            shardAnalyzers.back()->scenarioPartial(scenario, tFast, tSlow));
    }
    put("core.partial_encode_us",
        1000.0 * timed(log, "core.partial_encode", [&](unsigned) {
            for (std::size_t i = 0; i < partials.size(); ++i)
                encoded[i] = encodeScenarioPartial(partials[i]);
        }));
    double partialBytes = 0;
    for (const std::string &bytes : encoded)
        partialBytes += static_cast<double>(bytes.size());
    put("core.partial_bytes", partialBytes);
    std::vector<ScenarioPartial> decoded(encoded.size());
    put("core.partial_decode_us",
        1000.0 * timed(log, "core.partial_decode", [&](unsigned) {
            for (std::size_t i = 0; i < encoded.size(); ++i) {
                Expected<ScenarioPartial> p =
                    decodeScenarioPartial(encoded[i]);
                if (!p)
                    die("partial decode: " + p.error().render());
                decoded[i] = std::move(p.value());
            }
        }));
    put("core.partial_merge_us",
        1000.0 * timed(log, "core.partial_merge", [&](unsigned) {
            SymbolTable symbols;
            PartialClasses mergedClasses;
            PartialImpact mergedImpact;
            PartialAwg mergedFast, mergedSlow;
            for (ScenarioPartial partial : decoded) {
                partial.remapFrames(symbols);
                mergedClasses.merge(partial.classes);
                mergedImpact.merge(partial.slowImpact);
                mergedFast.merge(partial.awgFast);
                mergedSlow.merge(partial.awgSlow);
            }
        }));

    // json: parse and render the bodies of this corpus's impact and
    // analyze answers.
    const std::vector<std::string> bodies = {
        impactBody,
        referenceSummary(analyzer, scenario, tFast, tSlow).render()};
    double bodyBytes = 0;
    for (const std::string &body : bodies)
        bodyBytes += static_cast<double>(body.size());
    std::vector<JsonValue> parsed(bodies.size());
    const double parseMs = timed(log, "json.parse", [&](unsigned) {
        for (unsigned round = 0; round < kRounds; ++round) {
            for (std::size_t i = 0; i < bodies.size(); ++i) {
                Expected<JsonValue> value = JsonValue::parse(bodies[i]);
                if (!value)
                    die("json parse failed");
                parsed[i] = std::move(value.value());
            }
        }
    });
    put("json.parse_mb_per_s",
        kRounds * bodyBytes / 1e6 / (parseMs / 1000.0));
    std::vector<std::string> rendered(bodies.size());
    const double renderMs = timed(log, "json.render", [&](unsigned) {
        for (unsigned round = 0; round < kRounds; ++round)
            for (std::size_t i = 0; i < bodies.size(); ++i)
                rendered[i] = parsed[i].render();
    });
    if (rendered != bodies)
        die("json render is not byte-identical after a parse");
    put("json.render_mb_per_s",
        kRounds * bodyBytes / 1e6 / (renderMs / 1000.0));

    // coordinator: a scatter/gather of the scenario over two
    // in-process workers (fresh thresholds each time, so no worker
    // answers from its response cache).
    {
        ServerConfig workerConfig;
        workerConfig.workers = 2;
        workerConfig.registry.maxSessions = 4 * shardFiles.size();
        Server workerA(workerConfig), workerB(workerConfig);
        Expected<std::uint16_t> portA = workerA.start();
        Expected<std::uint16_t> portB = workerB.start();
        if (!portA || !portB)
            die("cannot start in-process workers");
        CoordinatorConfig coordConfig;
        coordConfig.workers = {"127.0.0.1:" + std::to_string(portA.value()),
                               "127.0.0.1:" + std::to_string(portB.value())};
        Coordinator coordinator(coordConfig);
        const fs::path absolute = fs::absolute(corpusPath);
        auto gatherOnce = [&](double bump) {
            ScenarioGather gather;
            if (auto error = coordinator.gatherScenario(
                    Method::AnalyzePartial, absolute.string(), scenario,
                    tFastMs + bump, tSlowMs + bump, {}, std::nullopt,
                    gather))
                die("gather: " + error->message);
            if (gather.report.degraded())
                die("gather degraded");
        };
        gatherOnce(0.0); // warm the workers' sessions
        put("coordinator.gather_ms",
            timed(log, "coordinator.gather",
                  [&](unsigned r) { gatherOnce(0.001 * (r + 1)); }));
        workerA.requestStop();
        workerB.requestStop();
        workerA.wait();
        workerB.wait();
    }

    // fleet: the shards pushed in turn, one window each, until
    // kFleetIngests pushes were made; timed from the third push on,
    // when the sentinel has a two-window baseline to evaluate against.
    {
        constexpr std::size_t kFleetIngests = 10;
        const fs::path spool = need(args, "fleet-spool");
        fs::remove_all(spool);
        fs::create_directories(spool);
        FleetConfig fleetConfig;
        fleetConfig.dir = spool.string();
        fleetConfig.windowMs = 60000;
        fleetConfig.maxWindows = 4;
        fleetConfig.sentinel.scenarios.push_back({scenario, tFast, tSlow});
        fleetConfig.sentinel.baselineWindows = 2;
        FleetService fleet(fleetConfig);
        std::vector<double> ingestMs;
        for (std::size_t i = 0; i < kFleetIngests; ++i) {
            const std::string &file = shardFiles[i % shardFiles.size()];
            Expected<TraceCorpus> shard = readCorpusFileChecked(file);
            if (!shard)
                die("read shard: " + shard.error().render());
            SpanLog::Scope span(log, "fleet.ingest");
            fleet.ingest("push-" + std::to_string(i) + ".tlc",
                         std::move(shard.value()), i * fleetConfig.windowMs);
            const double ms = span.close();
            if (i >= 2)
                ingestMs.push_back(ms);
        }
        put("fleet.ingest_ms", median(ingestMs));
        put("fleet.summary_ms",
            timed(log, "fleet.summary", [&](unsigned) {
                fleet.windowSummary(scenario, tFast, tSlow, "all", 0, 5,
                                    true);
            }));
        fs::remove_all(spool);
    }

    log.write(need(args, "spans"));
    std::cout << m.render() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    if (argc < 2)
        die("usage: perfbench_probe load|reference|layers --key value...");
    const std::string command = argv[1];
    const std::map<std::string, std::string> args = parseArgs(argc, argv);
    if (command == "load")
        return runLoad(args);
    if (command == "reference")
        return runReference(args);
    if (command == "layers")
        return runLayers(args);
    die("unknown subcommand " + command);
}
