/**
 * @file
 * One benchmark cell in one process: the measurement half of the repo
 * benchmark (perfbench/run.py launches it once per cell and aggregates).
 *
 *   buildSystem -> warm-up run -> clearAllStats -> measured run
 *   -> collectMetrics -> [check, untimed] -> [probes, --trace 1]
 *   -> ~System
 *
 * Every slice is timed with steady_clock from main() entry, so
 *   setup_s = build + warm-up + clear (everything before the first
 *             measured access),
 *   cell_s  = setup + measured + collect + teardown,
 * and peak RSS is this process's VmHWM, read before the untimed check
 * so neither the checker nor the probes raise it. The invariant check
 * (check::checkSystem, full pass) runs with the clock paused.
 *
 * With --trace 1 the cell also probes each layer on the warmed system:
 * it draws that workload's own address stream from the cores' trace
 * sources and drives it through each layer's public entry point in
 * timed batches, recording per batch how many calls into other probed
 * layers were nested inside, so run.py can subtract them (self time)
 * and reconcile Σ(self ns × calls) against the measured slice.
 *
 * Output: one JSON object on the last stdout line.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "sim/metrics.h"
#include "sim/scheme.h"
#include "sim/system_builder.h"
#include "workloads/registry.h"

using namespace csalt;

namespace
{

using Clock = std::chrono::steady_clock;

/** A benchmark workload: one fig07-style two-VM cell with 2-D walks. */
struct WorkloadSpec
{
    const char *name;
    const char *pair;  //!< paper pair label (workloads/registry)
    SchemeId scheme;
};

constexpr std::array<WorkloadSpec, 2> kWorkloads = {{
    {"ccomp_csalt_cd", "ccomp", SchemeId::csaltCD},
    {"gups_nested_walk", "gups", SchemeId::conventional},
}};

struct Options
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 1;
    std::uint64_t warmup = 600'000; //!< instructions per core
    std::uint64_t quota = 1'000'000; //!< measured instructions per core
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_cell: %s\n"
                 "usage: perfbench_cell --workload NAME [--seed N] "
                 "[--warmup N] [--quota N] [--trace 0|1]\n"
                 "workloads:",
                 why.c_str());
    for (const WorkloadSpec &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end)
        usage(std::string("bad number for ") + flag + ": " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *val = argv[++i];
        if (flag == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (std::strcmp(w.name, val) == 0)
                    opt.workload = &w;
            if (!opt.workload)
                usage(std::string("unknown workload ") + val);
        } else if (flag == "--seed") {
            opt.seed = parseU64("--seed", val);
        } else if (flag == "--warmup") {
            opt.warmup = parseU64("--warmup", val);
        } else if (flag == "--quota") {
            opt.quota = parseU64("--quota", val);
        } else if (flag == "--trace") {
            opt.trace = parseU64("--trace", val) != 0;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!opt.workload)
        usage("--workload is required");
    if (opt.quota == 0)
        usage("--quota must be positive");
    return opt;
}

/** A field of /proc/self/status ("VmHWM", "VmRSS") in MB. */
double
procStatusMb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr) /
                   1024.0;
    }
    return 0.0;
}

/** Named host-time intervals relative to main() entry. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Open a span under @p parent (-1 = root); returns its index. */
    int
    open(const char *name, int parent = -1)
    {
        spans_.push_back({name, parent, now(), 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int span) { spans_[span].end_s = now(); }

    double
    seconds(int span) const
    {
        return spans_[span].end_s - spans_[span].start_s;
    }

    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    void
    writeJson(std::ostream &os) const
    {
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? "," : "") << "{\"name\":\"" << s.name
               << "\",\"parent\":" << s.parent
               << ",\"start_s\":" << s.start_s
               << ",\"end_s\":" << s.end_s << "}";
        }
        os << "]";
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        double start_s;
        double end_s;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------------ probes

/**
 * Calls into other probed layers, counted around one batch. The order
 * is the column order of a batch record; run.py's NESTED mirrors it.
 */
enum Nested : unsigned
{
    kNestDram,
    kNestTranslation,
    kNestRepartition,
    kNumNested,
};

/** One timed batch of calls into a single layer entry point. */
struct Batch
{
    double ns = 0.0;
    std::uint64_t calls = 0;
    std::array<std::uint64_t, kNumNested> nested{};
};

struct LayerProbe
{
    std::string name; //!< ledger layer ("cache.data_access")
    std::vector<Batch> batches;
};

/** Forwards PTE reads to the memory system, remembering addresses. */
class RecordingMem : public TranslationMemIf
{
  public:
    RecordingMem(MemorySystem &mem, std::vector<Addr> &out)
        : mem_(mem), out_(out)
    {
    }

    Cycles
    translationAccess(unsigned core, Addr hpa, Cycles now) override
    {
        out_.push_back(hpa);
        return mem_.translationAccess(core, hpa, now);
    }

  private:
    MemorySystem &mem_;
    std::vector<Addr> &out_;
};

/**
 * One access of the workload's stream, drawn from a core's current
 * context. The cores' records are interleaved round-robin, as the
 * min-clock scheduler interleaves them, so a probe spreads its host
 * working set over every core's structures the way a run does.
 */
struct Access
{
    unsigned core = 0;
    VmContext *vm = nullptr;
    TraceRecord rec;
    Addr hpa = 0; //!< host-physical data address (vm.mapping probe)
};

/** A translation-line reference (page-walk PTE or POM-TLB set). */
struct LineRef
{
    unsigned core = 0;
    Addr hpa = 0;
};

constexpr std::size_t kProbeRecords = 4096; //!< per core
constexpr std::size_t kBatch = 256;
constexpr std::size_t kMinMissCalls = 8192;

std::uint64_t
dramCount(MemorySystem &mem)
{
    return mem.ddr().stats().accesses + mem.stacked().stats().accesses;
}

/** translationAccess calls issued by POM lookups and page walks. */
std::uint64_t
translationCount(System &sys)
{
    const PomLookupStats &pom = sys.mem().pomLookupStats();
    std::uint64_t n = pom.lookups + pom.second_probes;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        n += sys.core(c).walker().stats().refs;
    return n;
}

std::uint64_t
epochCount(MemorySystem &mem)
{
    std::uint64_t n = mem.l3Controller().epochsCompleted();
    for (unsigned c = 0; c < mem.numCores(); ++c)
        n += mem.l2Controller(c).epochsCompleted();
    return n;
}

/**
 * Time @p body(i) over i in [0, n) in batches of kBatch, recording the
 * nested-call deltas @p nested() reports around each batch.
 */
template <class Body, class NestedFn>
void
timeBatches(LayerProbe &probe, std::size_t n, Body body,
            NestedFn nested)
{
    for (std::size_t lo = 0; lo < n; lo += kBatch) {
        const std::size_t hi = std::min(n, lo + kBatch);
        const auto before = nested();
        const auto t0 = Clock::now();
        for (std::size_t i = lo; i < hi; ++i)
            body(i);
        const auto t1 = Clock::now();
        const auto after = nested();
        Batch b;
        b.ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
        b.calls = hi - lo;
        for (unsigned k = 0; k < kNumNested; ++k)
            b.nested[k] = after[k] - before[k];
        probe.batches.push_back(b);
    }
}

/** Probe every timed-path layer on the warmed system. */
std::vector<LayerProbe>
probeLayers(System &sys, SpanLog &spans, int parent)
{
    MemorySystem &mem = sys.mem();
    const unsigned cores = sys.numCores();
    const bool pom = sys.params().translation == TranslationKind::pomTlb;
    auto nested = [&] {
        return std::array<std::uint64_t, kNumNested>{
            dramCount(mem), translationCount(sys), epochCount(mem)};
    };
    auto none = [] { return std::array<std::uint64_t, kNumNested>{}; };

    std::vector<LayerProbe> probes;
    auto layer = [&](const char *name) -> LayerProbe & {
        probes.push_back({name, {}});
        return probes.back();
    };
    // Every probe advances its own per-core clock by the latencies it
    // is charged, so queueing state stays as plausible as in a run.
    std::vector<Cycles> now(cores);
    auto resetClocks = [&] {
        for (unsigned c = 0; c < cores; ++c)
            now[c] = sys.core(c).clock();
    };
    std::uint64_t sink = 0; // keeps every probed result observable

    std::vector<Access> stream(kProbeRecords * cores);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i].core = static_cast<unsigned>(i % cores);
        stream[i].vm = &sys.core(stream[i].core).currentContext().vm();
    }

    int sp = spans.open("probe.workloads.next", parent);
    timeBatches(layer("workloads.next"), stream.size(), [&](std::size_t i) {
        stream[i].rec =
            sys.core(stream[i].core).currentContext().trace().next();
    }, none);
    spans.close(sp);

    sp = spans.open("probe.vm.mapping", parent);
    timeBatches(layer("vm.mapping"), stream.size(), [&](std::size_t i) {
        Access &a = stream[i];
        const Mapping m = a.vm->mappingOf(a.rec.vaddr);
        a.hpa = m.frame + (a.rec.vaddr & (pageBytes(m.ps) - 1));
    }, none);
    spans.close(sp);

    // The walk/POM stream is the workload's TLB misses, padded from
    // the full stream when the TLBs absorb nearly all of it.
    std::vector<std::size_t> miss;
    miss.reserve(stream.size());
    sp = spans.open("probe.tlb.lookup", parent);
    resetClocks();
    timeBatches(layer("tlb.lookup"), stream.size(), [&](std::size_t i) {
        const Access &a = stream[i];
        const TlbLookupResult r = sys.core(a.core).tlbs().lookup(
            a.vm->asid(), a.rec.vaddr, now[a.core]);
        if (!r.l1_hit && !r.l2_hit)
            miss.push_back(i);
        sink += r.latency;
    }, none);
    spans.close(sp);
    for (std::size_t i = 0; miss.size() < kMinMissCalls && i < stream.size();
         ++i)
        miss.push_back(i);

    sp = spans.open("probe.mem.dram_access", parent);
    resetClocks();
    timeBatches(layer("mem.dram_access"), stream.size(), [&](std::size_t i) {
        const Access &a = stream[i];
        now[a.core] += mem.ddr().access(a.hpa, now[a.core]);
    }, none);
    spans.close(sp);

    sp = spans.open("probe.core.repartition", parent);
    timeBatches(layer("core.repartition"), kProbeRecords / 4,
                [&](std::size_t i) {
        if (i % 2)
            mem.l3Controller().repartition(now[0]);
        else
            mem.l2Controller(i / 2 % cores).repartition(now[0]);
    }, none);
    spans.close(sp);

    sp = spans.open("probe.tlb.pom_lookup", parent);
    {
        std::vector<PageSizePredictor> predictors(cores);
        resetClocks();
        timeBatches(layer("tlb.pom_lookup"), miss.size(), [&](std::size_t k) {
            const Access &a = stream[miss[k]];
            now[a.core] += mem.pomLookup(a.core, a.vm->asid(), a.rec.vaddr,
                                         predictors[a.core], now[a.core])
                               .latency;
        }, nested);
    }
    spans.close(sp);

    sp = spans.open("probe.vm.walk", parent);
    resetClocks();
    timeBatches(layer("vm.walk"), miss.size(), [&](std::size_t k) {
        const Access &a = stream[miss[k]];
        now[a.core] +=
            sys.core(a.core).walker().walk(*a.vm, a.rec.vaddr, now[a.core])
                .latency;
    }, nested);
    spans.close(sp);

    // Translation-line stream (untimed): the PTE reads a walk of each
    // missing address issues, plus its POM-TLB set line when the
    // scheme has one.
    std::vector<LineRef> lines;
    sp = spans.open("probe.collect_translation_lines", parent);
    {
        std::vector<Addr> ptes;
        std::vector<RecordingMem> recorders;
        std::vector<PageWalker> walkers;
        recorders.reserve(cores);
        walkers.reserve(cores);
        for (unsigned c = 0; c < cores; ++c) {
            recorders.emplace_back(mem, ptes);
            walkers.emplace_back(c, sys.core(c).mmu(), recorders.back());
        }
        resetClocks();
        for (const std::size_t k : miss) {
            const Access &a = stream[k];
            if (pom) {
                lines.push_back({a.core, mem.pom().lineAddrOf(
                                             a.vm->asid(), a.rec.vaddr,
                                             PageSize::size4K)});
            }
            ptes.clear();
            sink += walkers[a.core].walk(*a.vm, a.rec.vaddr, now[a.core])
                        .latency;
            for (const Addr pte : ptes)
                lines.push_back({a.core, pte});
        }
    }
    spans.close(sp);

    sp = spans.open("probe.cache.translation_access", parent);
    resetClocks();
    timeBatches(layer("cache.translation_access"), lines.size(),
                [&](std::size_t i) {
        const LineRef &l = lines[i];
        now[l.core] += mem.translationAccess(l.core, l.hpa, now[l.core]);
    }, nested);
    spans.close(sp);

    sp = spans.open("probe.cache.data_access", parent);
    resetClocks();
    timeBatches(layer("cache.data_access"), stream.size(), [&](std::size_t i) {
        const Access &a = stream[i];
        now[a.core] += mem.dataAccess(a.core, a.hpa, a.rec.type, now[a.core]);
    }, nested);
    spans.close(sp);

    for (const Cycles t : now)
        sink += t;
    if (sink == 0)
        std::fprintf(stderr, "perfbench_cell: empty probe results\n");
    return probes;
}

// ------------------------------------------------------------ output

/** Sum of a registry counter over every core ("core<N>.<suffix>"). */
double
perCoreSum(const obs::StatRegistry &reg, unsigned cores,
           const std::string &suffix)
{
    double sum = 0.0;
    for (unsigned c = 0; c < cores; ++c)
        sum += reg.valueOf("core" + std::to_string(c) + suffix);
    return sum;
}

double
hitRate(double hits, double misses)
{
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void
writeCounts(std::ostream &os, const System &sys, const RunMetrics &m)
{
    const obs::StatRegistry &reg = sys.statRegistry();
    const unsigned n = sys.numCores();
    const double l2_hits = perCoreSum(reg, n, ".l2.hit_data") +
                           perCoreSum(reg, n, ".l2.hit_xlat");
    const double l2_misses = perCoreSum(reg, n, ".l2.miss_data") +
                             perCoreSum(reg, n, ".l2.miss_xlat");
    const double l3_hits =
        reg.valueOf("l3.hit_data") + reg.valueOf("l3.hit_xlat");
    const double l3_misses =
        reg.valueOf("l3.miss_data") + reg.valueOf("l3.miss_xlat");
    const double walk_refs = perCoreSum(reg, n, ".walk.refs");
    double epochs = reg.valueOf("ctrl.l3.epochs");
    for (unsigned c = 0; c < n; ++c)
        epochs += reg.valueOf("ctrl.core" + std::to_string(c) + ".l2.epochs");

    os << "{\"memrefs\":" << m.total_memrefs
       << ",\"walks\":" << m.walks
       << ",\"walk_refs\":" << walk_refs
       << ",\"l2_tlb_misses\":" << m.l2_tlb_misses
       << ",\"pom_lookups\":" << reg.valueOf("pom.lookup.lookups")
       << ",\"pom_second_probes\":"
       << reg.valueOf("pom.lookup.second_probes")
       << ",\"pom_hit_rate\":" << m.pom_hit_rate
       << ",\"l2_hit_rate\":" << hitRate(l2_hits, l2_misses)
       << ",\"l3_hit_rate\":" << hitRate(l3_hits, l3_misses)
       << ",\"dram_accesses\":"
       << reg.valueOf("dram.ddr.accesses") +
              reg.valueOf("dram.stacked.accesses")
       << ",\"repartitions\":" << epochs
       << ",\"ipc\":" << m.ipc_geomean << "}";
}

void
writeProbes(std::ostream &os, const std::vector<LayerProbe> &probes)
{
    os << "{";
    for (std::size_t i = 0; i < probes.size(); ++i) {
        os << (i ? "," : "") << "\"" << probes[i].name << "\":[";
        const auto &bs = probes[i].batches;
        for (std::size_t j = 0; j < bs.size(); ++j) {
            os << (j ? "," : "") << "[" << bs[j].ns << ","
               << bs[j].calls;
            for (const std::uint64_t n : bs[j].nested)
                os << "," << n;
            os << "]";
        }
        os << "]";
    }
    os << "}";
}

std::string
jsonString(const char *s)
{
    std::string out = "\"";
    for (const char *p = s; *p; ++p) {
        if (*p == '"' || *p == '\\')
            out += '\\';
        out += static_cast<unsigned char>(*p) < 0x20 ? ' ' : *p;
    }
    return out + "\"";
}

int
runCell(const Options &opt, Clock::time_point origin)
{
    SpanLog spans(origin);
    const int cell = spans.open("cell");

    const int build = spans.open("build", cell);
    BuildSpec spec;
    schemeInfo(opt.workload->scheme).apply(spec.params);
    spec.params.virtualized = true;
    spec.params.seed = opt.seed;
    const PairSpec pair = resolvePair(opt.workload->pair);
    spec.vm_workloads = {pair.vm1, pair.vm2};
    auto system = buildSystem(spec);
    // $CSALT_PARANOID would add invariant sweeps inside the timed run.
    system->setParanoid(false);
    spans.close(build);
    const double rss_build_mb = procStatusMb("VmRSS");

    const int warm = spans.open("warmup", cell);
    if (opt.warmup)
        system->run(opt.warmup);
    spans.close(warm);
    int sp = spans.open("clear", cell);
    system->clearAllStats();
    spans.close(sp);
    const double setup_s = spans.now();

    const int measured = spans.open("measured", cell);
    system->run(opt.quota);
    spans.close(measured);

    sp = spans.open("collect", cell);
    const RunMetrics metrics = collectMetrics(*system);
    spans.close(sp);
    const double peak_rss_mb = procStatusMb("VmHWM");

    // Untimed: the invariant audit and (traced) the layer probes.
    const int check_span = spans.open("check");
    check::CheckOptions copts;
    copts.full = true;
    const auto violations = check::checkSystem(*system, copts);
    spans.close(check_span);

    std::ostringstream counts;
    std::ostringstream probes;
    counts.precision(17);
    probes.precision(17);
    int probe_span = -1;
    if (opt.trace) {
        writeCounts(counts, *system, metrics);
        probe_span = spans.open("probe");
        writeProbes(probes, probeLayers(*system, spans, probe_span));
        spans.close(probe_span);
    }

    const int teardown = spans.open("teardown", cell);
    system.reset();
    spans.close(teardown);
    spans.close(cell);

    const double untimed_s =
        spans.seconds(check_span) +
        (probe_span >= 0 ? spans.seconds(probe_span) : 0.0);
    const double measured_s = spans.seconds(measured);

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":" << jsonString(opt.workload->name)
       << ",\"seed\":" << opt.seed << ",\"warmup\":" << opt.warmup
       << ",\"quota\":" << opt.quota
       << ",\"build\":{\"type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"cxx_flags\":" << jsonString(PERFBENCH_CXX_FLAGS)
       << ",\"ipo\":" << jsonString(PERFBENCH_IPO)
       << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER) << "}"
       << ",\"sim\":{\"total_memrefs\":" << metrics.total_memrefs
       << ",\"total_instructions\":" << metrics.total_instructions
       << ",\"cycles\":" << metrics.total_cycles
       << ",\"walks\":" << metrics.walks << "}"
       << ",\"violations\":" << violations.size();
    if (!violations.empty()) {
        os << ",\"first_violation\":"
           << jsonString((violations[0].invariant + " at " +
                          violations[0].where + ": " +
                          violations[0].detail)
                             .c_str());
    }
    os << ",\"time\":{\"setup_s\":" << setup_s
       << ",\"build_s\":" << spans.seconds(build)
       << ",\"warmup_s\":" << spans.seconds(warm)
       << ",\"measured_s\":" << measured_s
       << ",\"teardown_s\":" << spans.seconds(teardown)
       << ",\"cell_s\":" << spans.seconds(cell) - untimed_s
       << ",\"check_s\":" << spans.seconds(check_span)
       << ",\"probe_s\":"
       << (probe_span >= 0 ? spans.seconds(probe_span) : 0.0) << "}"
       << ",\"maps\":"
       << static_cast<double>(metrics.total_memrefs) / measured_s / 1e6
       << ",\"rss\":{\"build_mb\":" << rss_build_mb
       << ",\"peak_mb\":" << peak_rss_mb << "}";
    if (opt.trace) {
        os << ",\"counts\":" << counts.str()
           << ",\"probes\":" << probes.str() << ",\"spans\":";
        spans.writeJson(os);
    }
    os << "}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point origin = Clock::now();
    const Options opt = parseArgs(argc, argv);
    try {
        return runCell(opt, origin);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_cell: %s\n", e.what());
        return 1;
    }
}
