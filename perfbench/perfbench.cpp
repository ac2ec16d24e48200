// perfbench: the repository benchmark. Runs one named workload through the
// public core::Session API for a fixed number of seconds, checks every
// campaign's verdict bitmap against the serial oracle (src/baseline), and
// prints its metrics — the end-to-end ones untraced (--trace 0), or the
// per-layer ones from a separate traced run (--trace 1). Every number is
// measured from outside the program: the benchmark times its own calls into
// each layer's public functions and reads what the program already exposes
// (CampaignResult::stats, ShardBreakdown, SchedulerStats, ShardObserver
// events). Nothing inside src/ is instrumented.
//
//   perfbench --workload suite_cold|epoch_fleet --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every campaign completed and matched the
// oracle. perfbench/README.md documents the workloads and metric meanings.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/serial.h"
#include "eraser/eraser.h"
#include "eraser/remote.h"
#include "eraser/supervisor.h"
#include "suite/suite.h"
#include "util/prng.h"

using namespace eraser;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. They size each workload so a run holds enough
// campaigns for stable medians within the 45 s window of BENCHMARK.json on
// a 4-core host.
// ---------------------------------------------------------------------------

/// suite_cold runs on one thread. A campaign's wall is the slowest of its
/// parallel shards, so on a shared host one stalled vCPU stalls the whole
/// campaign: on 4 threads round walls spread 23% within a run, on one
/// thread 5-11%.
constexpr uint32_t kSuiteThreads = 1;

/// suite_cold: multiple of each circuit's registry cycles. Every campaign is
/// made long enough to time, about 0.1 s or more on one thread; shorter
/// ones moved 30-80% between runs. fpu, sha256_hv, sha256_c2v and
/// picorv32 are long enough at twice their registry cycles. One round over
/// the ten circuits takes about 2 s.
uint32_t suite_cycle_scale(const std::string& circuit) {
    static const std::map<std::string, uint32_t> scale = {
        {"alu", 8},      {"apb", 40},     {"sodor", 6},
        {"riscv_mini", 8}, {"conv_acc", 8}, {"mips_cpu", 6}};
    const auto it = scale.find(circuit);
    return it == scale.end() ? 2 : it->second;
}

/// epoch_fleet: a thin fault axis (one 64-lane group) over many short,
/// mostly undetecting epochs, on local threads plus supervised workers, with
/// the verdict cache on.
constexpr const char* kFleetCircuit = "sha256_hv";
constexpr uint32_t kFleetFaults = 64;
constexpr uint32_t kFleetEpochs = 128;
constexpr uint32_t kFleetEpochCycles = 40;
constexpr uint32_t kFleetWorkers = 2;

/// Set-up is millisecond-scale and jumpy, so a run repeats it and reports
/// the median. It repeats in two batches, one before the workload and one
/// after it, so the median spans the whole run and not only the moment it
/// started; each batch sets up at least kSetupMinReps times and until
/// kSetupSeconds of set-up and teardown have passed.
constexpr int kSetupMinReps = 21;
constexpr double kSetupSeconds = 1.0;

/// The verdict-cache store every set-up loads is left by kPrimeCampaigns
/// fixed campaigns on kPrimeCircuit (see prime_stores).
constexpr const char* kPrimeCircuit = "alu";
constexpr uint32_t kPrimeCampaigns = 4;
constexpr uint64_t kPrimeSeed = 0x5eedc0de;

/// Faults per fresh campaign re-run on the serial oracle (half drawn from
/// the engine's detected faults, half from its undetected ones).
constexpr uint32_t kOracleSample = 8;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_start = Clock::now();

double now_s() {
    return std::chrono::duration<double>(Clock::now() - g_start).count();
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t mix(uint64_t a, uint64_t b) {
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// Chrome trace-event output (written by hand, no dependency).
// ---------------------------------------------------------------------------

struct Span {
    std::string name;
    int pid = 0;
    int tid = 0;
    double begin = 0.0;
    double end = 0.0;
};

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                     s.name.c_str(), s.pid, s.tid, s.begin * 1e6,
                     std::max(0.0, s.end - s.begin) * 1e6,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Set-up: everything from loading the designs until "ready to submit".
// ---------------------------------------------------------------------------

struct Circuit {
    const suite::Benchmark* bench = nullptr;
    std::unique_ptr<rtl::Design> design;
    std::shared_ptr<const core::CompiledDesign> compiled;
    std::unique_ptr<core::Session> session;   // destroyed first
};

/// One live configuration. Member order is teardown order in reverse:
/// Sessions drain first, then the cache, then the fleet.
struct Env {
    std::unique_ptr<core::WorkerSupervisor> supervisor;
    std::shared_ptr<core::VerdictCache> cache;
    std::vector<Circuit> circuits;

    [[nodiscard]] core::SchedulerStats stats() {
        core::SchedulerStats total;
        for (Circuit& c : circuits) {
            const core::SchedulerStats s = c.session->scheduler().stats();
            total.remote.units_dispatched += s.remote.units_dispatched;
            total.remote.units_redispatched += s.remote.units_redispatched;
            total.remote.units_skipped_cost += s.remote.units_skipped_cost;
            total.remote.handshake_failures += s.remote.handshake_failures;
            total.remote.links_lost += s.remote.links_lost;
            total.remote.workers_connected += s.remote.workers_connected;
            // Cache counters are global to the (shared) cache, so the last
            // Session's view is the total.
            total.cache = s.cache;
        }
        return total;
    }
};

struct SetupTimes {
    double parse = 0.0;
    double build = 0.0;
    double cache = 0.0;
    double supervisor = 0.0;
    double session = 0.0;
    double total = 0.0;
};

struct WorkloadConfig {
    std::string name;
    std::vector<std::string> circuits;
    uint32_t threads = 0;
    bool cache = false;
    uint32_t workers = 0;
    /// Campaigns per round, the fixed group wall_s sums: the ten circuits
    /// (suite_cold), a fresh campaign and its repeat (epoch_fleet).
    size_t round_size = 1;
    /// Tail percentile of latency_tail_s, fixed per workload so every
    /// commit compares the same percentile: the highest step of the ladder
    /// {50, 75, 90, 95, 99, 99.9} that keeps at least ten campaigns beyond
    /// it, with margin, at this workload's rate over 45 s.
    double tail_pct = 0.9;
};

uint32_t host_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

WorkloadConfig workload_config(const std::string& name) {
    WorkloadConfig w;
    w.name = name;
    if (name == "suite_cold") {
        for (const auto& b : suite::registry()) w.circuits.push_back(b.name);
        w.round_size = w.circuits.size();
        w.threads = kSuiteThreads;
        w.tail_pct = 0.95;
    } else if (name == "epoch_fleet") {
        w.circuits = {kFleetCircuit};
        w.round_size = 2;
        w.cache = true;
        // At most nproc executors in total: workers take their share.
        w.threads = std::max(1u, host_threads() - std::min(host_threads() - 1,
                                                           kFleetWorkers));
        w.workers = kFleetWorkers;
        w.tail_pct = 0.90;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

struct Paths {
    std::string cache_store;
    std::string worker_bin;
    /// What prime_stores left: each set-up starts from a copy of it.
    std::string cache_store_primed;
};

/// Replaces `to` with a copy of `from`, or removes it when `from` is absent.
void restore_file(const std::string& from, const std::string& to) {
    namespace fs = std::filesystem;
    if (fs::exists(from)) {
        fs::copy_file(from, to, fs::copy_options::overwrite_existing);
    } else {
        fs::remove(to);
    }
}

/// Builds one configuration, timing each layer's public set-up call.
std::unique_ptr<Env> set_up(const WorkloadConfig& w, const Paths& paths,
                            SetupTimes& t, std::vector<Span>* spans) {
    // Each repetition opens the same on-disk state: the primed store (none
    // before prime_stores has run).
    restore_file(paths.cache_store_primed, paths.cache_store);
    auto env = std::make_unique<Env>();
    const double t0 = now_s();
    const auto span = [&](const char* name, double b, double e) {
        if (spans != nullptr) spans->push_back({name, 0, 1, b, e});
    };

    for (const std::string& name : w.circuits) {
        Circuit c;
        c.bench = &suite::find_benchmark(name);
        const double a = now_s();
        c.design = suite::load_design(*c.bench);
        const double b = now_s();
        c.compiled = core::CompiledDesign::build(*c.design);
        const double e = now_s();
        t.parse += b - a;
        t.build += e - b;
        span("frontend.parse", a, b);
        span("compiled_design.build", b, e);
        env->circuits.push_back(std::move(c));
    }
    if (w.cache) {
        const double a = now_s();
        core::VerdictCacheOptions o;
        o.store_path = paths.cache_store;
        env->cache = std::make_shared<core::VerdictCache>(o);
        t.cache = now_s() - a;
        span("verdict_cache.load", a, a + t.cache);
    }
    if (w.workers > 0) {
        const double a = now_s();
        core::SupervisorOptions o;
        o.binary = paths.worker_bin;
        o.workers = w.workers;
        env->supervisor = std::make_unique<core::WorkerSupervisor>(o);
        env->supervisor->start();
        t.supervisor = now_s() - a;
        span("supervisor.start", a, a + t.supervisor);
    }
    const double a = now_s();
    for (Circuit& c : env->circuits) {
        core::SessionOptions so;
        so.num_threads = w.threads;
        so.scheduler.verdict_cache = env->cache;
        if (env->supervisor) {
            so.scheduler.remote.workers = env->supervisor->ports();
            so.scheduler.remote.design = suite::design_spec(*c.bench);
        }
        c.session = std::make_unique<core::Session>(c.compiled, so);
        // First scheduler() use creates the pool and the fleet links.
        (void)c.session->scheduler();
    }
    if (env->supervisor) {
        // Ready means every worker link has handshaken (and compiled).
        const double deadline = now_s() + 60.0;
        while (env->stats().remote.workers_connected < w.workers) {
            if (now_s() > deadline) {
                throw std::runtime_error("worker fleet never connected");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    t.session = now_s() - a;
    span("session.create", a, a + t.session);
    t.total = now_s() - t0;
    span("setup", t0, t0 + t.total);
    return env;
}

// ---------------------------------------------------------------------------
// Campaigns.
// ---------------------------------------------------------------------------

/// One distinct campaign input. Repeats re-submit an Input verbatim. The
/// fault list is kept as its seeded recipe and regenerated on use, so the
/// benchmark's own memory does not grow with the number of campaigns.
struct Input {
    size_t circuit = 0;
    uint32_t sample = 0;   // faults drawn from the circuit's full list
    uint64_t fault_seed = 0;
    core::StimulusSpec spec;
};

std::vector<fault::Fault> faults_of(const Circuit& circ, const Input& in) {
    fault::FaultGenOptions o;
    o.sample_max = in.sample;
    o.sample_seed = in.fault_seed;
    return fault::generate_faults(*circ.design, o);
}

struct Run {
    size_t input = 0;
    bool repeat = false;
    size_t round = 0;
    bool traced = false;
    double t_begin = 0.0;       // before Session::submit
    double t_submitted = 0.0;   // submit returned
    double t_end = 0.0;         // wait returned the final bitmap
    core::CampaignResult result;
    /// Traced runs: when each unit's ShardObserver event arrived, by shard
    /// index. Heap-held so the observer's pointer survives moves of Run.
    std::shared_ptr<std::vector<double>> landed;
    bool failed = false;
    std::string error;

    [[nodiscard]] double latency() const { return t_end - t_begin; }
};

/// Submits one campaign and waits for its final bitmap. Untraced runs keep
/// only the verdicts, again to keep the benchmark's own memory flat.
Run run_campaign(Circuit& circ, const Input& in, size_t input_id,
                 bool repeat, bool traced) {
    const std::vector<fault::Fault> faults = faults_of(circ, in);
    Run r;
    r.input = input_id;
    r.repeat = repeat;
    r.traced = traced;
    core::CampaignOptions opts;
    opts.engine.time_phases = traced;
    core::ShardObserver observer;
    if (traced) {
        r.landed = std::make_shared<std::vector<double>>();
        // Observer calls are serialized and happen-before wait() returns.
        observer = [landed = r.landed](const core::ShardEvent& ev) {
            if (ev.terminal) return;
            if (landed->size() <= ev.shard) landed->resize(ev.shard + 1, 0.0);
            (*landed)[ev.shard] = now_s();
        };
    }
    r.t_begin = now_s();
    try {
        core::CampaignHandle h =
            circ.session->submit(faults, in.spec, opts, std::move(observer));
        r.t_submitted = now_s();
        if (!h.valid()) {
            r.failed = true;
            r.error = "refused";
        } else {
            r.result = h.wait();
        }
    } catch (const std::exception& e) {
        r.failed = true;
        r.error = e.what();
    }
    r.t_end = now_s();
    if (r.result.canceled) {
        r.failed = true;
        r.error = "canceled";
    }
    if (!traced) r.result.stats = {};
    return r;
}

/// Everything one run measured, for the metric reducers below.
struct Measurement {
    std::vector<Input> inputs;
    /// Campaigns in issue order.
    std::vector<Run> runs;
    /// The measured window, and the scheduler counters where the traced
    /// phase starts (the window's end without --trace) and at the end.
    double t_begin = 0.0;
    double t_end = 0.0;
    core::SchedulerStats stats_traced_begin;
    core::SchedulerStats stats_end;
};

/// Issues rounds `do_round(round, traced)` for the
/// untraced phase, then (with --trace) for the traced phase, each until its
/// share of the seconds is used. Round indices and the inputs derived from
/// them are phase-local, so the traced phase replays the same inputs
/// whatever the untraced phase managed to run.
template <typename RoundFn>
void run_phases(Env& env, Measurement& m, double seconds, bool trace,
                RoundFn do_round) {
    const auto phase = [&](double end, bool traced) {
        size_t round = 0;
        do {
            do_round(round++, traced);
        } while (now_s() < end);
    };
    m.t_begin = now_s();
    phase(m.t_begin + (trace ? seconds / 2 : seconds), false);
    m.stats_traced_begin = env.stats();
    if (trace) phase(now_s() + seconds / 2, true);
    m.t_end = now_s();
    m.stats_end = env.stats();
}

/// Input seed of (phase, key): the traced phase draws its own inputs.
uint64_t input_seed(uint64_t seed, bool traced, uint64_t key) {
    return mix(mix(seed, traced ? 1 : 0), key);
}

/// suite_cold: one client, the ten circuits one campaign at a time. Even
/// rounds draw fresh fault samples, odd rounds repeat the previous round
/// (no cache: a repeat is simulated again).
void drive_suite_cold(Env& env, Measurement& m, uint64_t seed,
                      double seconds, bool trace) {
    std::vector<size_t> last(env.circuits.size());
    const auto do_round = [&](size_t r, bool traced) {
        const bool repeat = r % 2 == 1;
        for (size_t c = 0; c < env.circuits.size(); ++c) {
            Circuit& circ = env.circuits[c];
            if (!repeat) {
                Input in;
                in.circuit = c;
                in.sample = circ.bench->fault_sample;
                in.fault_seed = input_seed(seed, traced, r * 1000 + c);
                in.spec = suite::remote_stimulus(
                    *circ.bench, circ.bench->cycles * suite_cycle_scale(circ.bench->name));
                m.inputs.push_back(std::move(in));
                last[c] = m.inputs.size() - 1;
            }
            Run run = run_campaign(circ, m.inputs[last[c]], last[c], repeat,
                                   traced);
            run.round = r;
            m.runs.push_back(std::move(run));
        }
    };
    run_phases(env, m, seconds, trace, do_round);
}

/// epoch_fleet: one client; each round is a fresh campaign followed by an
/// exact repeat of it, which the verdict cache serves.
void drive_epoch_fleet(Env& env, Measurement& m, uint64_t seed,
                       double seconds, bool trace) {
    Circuit& circ = env.circuits[0];
    const auto do_round = [&](size_t r, bool traced) {
        Input in;
        in.sample = kFleetFaults;
        in.fault_seed = input_seed(seed, traced, 2 * r);
        suite::RandomStimulus::Config cfg;
        cfg.reset = "rst";
        cfg.cycles = kFleetEpochs * kFleetEpochCycles;
        cfg.seed = input_seed(seed, traced, 2 * r + 1);
        in.spec = suite::remote_stimulus(cfg, kFleetEpochs);
        m.inputs.push_back(std::move(in));
        const size_t id = m.inputs.size() - 1;
        for (const bool repeat : {false, true}) {
            Run run = run_campaign(circ, m.inputs[id], id, repeat, traced);
            run.round = r;
            m.runs.push_back(std::move(run));
        }
    };
    run_phases(env, m, seconds, trace, do_round);
}

/// Untimed, before the set-up repetitions of a workload with the verdict
/// cache: runs kPrimeCampaigns fixed campaigns of kPrimeCircuit on a cached
/// Session and keeps the store they leave. Every set-up then times the load
/// of a populated store (verdict frames and a learned CostModel table).
/// kPrimeCircuit is not the cached workload's circuit, and verdicts and cost
/// tables are keyed by design, so the primed store can neither serve nor
/// steer a workload campaign.
void prime_stores(const WorkloadConfig& w, const Paths& paths) {
    if (!w.cache) return;
    std::filesystem::remove(paths.cache_store);
    {
        core::SessionOptions so;
        so.num_threads = host_threads();
        core::VerdictCacheOptions o;
        o.store_path = paths.cache_store;
        so.scheduler.verdict_cache = std::make_shared<core::VerdictCache>(o);
        Circuit circ;
        circ.bench = &suite::find_benchmark(kPrimeCircuit);
        circ.design = suite::load_design(*circ.bench);
        circ.compiled = core::CompiledDesign::build(*circ.design);
        circ.session = std::make_unique<core::Session>(circ.compiled, so);
        for (uint32_t i = 0; i < kPrimeCampaigns; ++i) {
            Input in;
            in.sample = circ.bench->fault_sample;
            in.fault_seed = mix(kPrimeSeed, i);
            in.spec = suite::remote_stimulus(*circ.bench, circ.bench->cycles);
            const Run r = run_campaign(circ, in, 0, false, false);
            if (r.failed) {
                throw std::runtime_error("priming campaign failed: " +
                                         r.error);
            }
        }
    }   // the Session, then the cache, which saves its store, end here
    std::filesystem::copy_file(paths.cache_store, paths.cache_store_primed,
                               std::filesystem::copy_options::overwrite_existing);
}

// ---------------------------------------------------------------------------
// Verification against the serial oracle (outside every timed region).
// ---------------------------------------------------------------------------

/// Serial-oracle verdicts of `subset` under `spec`. Epoched stimuli run one
/// reset-to-end serial campaign per epoch and OR the verdicts, exactly the
/// semantics the concurrent engine declares for independent epochs.
std::vector<bool> oracle_verdicts(const core::CompiledDesign& compiled,
                                  const std::vector<fault::Fault>& subset,
                                  const core::StimulusSpec& spec) {
    const std::unique_ptr<sim::Stimulus> probe = core::build_stimulus(spec);
    const uint32_t epochs = std::max<uint32_t>(1, probe->num_epochs());
    baseline::SerialOptions so;
    if (epochs == 1) {
        return baseline::run_serial_campaign(compiled, subset, *probe, so)
            .detected;
    }
    std::vector<bool> out(subset.size(), false);
    for (uint32_t e = 0; e < epochs; ++e) {
        sim::EpochWindowStimulus window(core::build_stimulus(spec), e, e + 1);
        const std::vector<bool> det =
            baseline::run_serial_campaign(compiled, subset, window, so)
                .detected;
        for (size_t i = 0; i < out.size(); ++i) out[i] = out[i] || det[i];
    }
    return out;
}

/// Checks every run: fresh campaigns against the oracle on a seeded sample
/// of their faults, repeats bit-for-bit against their fresh original.
/// Marks mismatching runs failed; runs on `threads` helper threads.
void verify(Env& env, Measurement& m, uint64_t seed, uint32_t threads) {
    // The first fresh run of each input is its reference bitmap.
    std::map<size_t, const Run*> original;
    std::vector<Run*> all;
    for (Run& r : m.runs) {
        all.push_back(&r);
        if (!r.failed && !r.repeat && original.count(r.input) == 0) {
            original[r.input] = &r;
        }
    }
    std::vector<Run*> fresh;
    for (Run* r : all) {
        if (r->failed) continue;
        const Input& in = m.inputs[r->input];
        if (r->result.detected.size() !=
            faults_of(env.circuits[in.circuit], in).size()) {
            r->failed = true;
            r->error = "bitmap size mismatch";
            continue;
        }
        if (original.count(r->input) != 0 && original[r->input] == r) {
            fresh.push_back(r);
        }
    }
    std::atomic<size_t> next{0};
    const auto worker = [&] {
        for (size_t j = next++; j < fresh.size(); j = next++) {
            Run& r = *fresh[j];
            const Input& in = m.inputs[r.input];
            const Circuit& circ = env.circuits[in.circuit];
            const std::vector<fault::Fault> faults = faults_of(circ, in);
            std::vector<uint32_t> det;
            std::vector<uint32_t> undet;
            for (uint32_t i = 0; i < faults.size(); ++i) {
                (r.result.detected[i] ? det : undet).push_back(i);
            }
            Prng rng(mix(seed, 0x0A11CE + r.input));
            const auto shuffle = [&](std::vector<uint32_t>& v) {
                for (size_t i = v.size(); i > 1; --i) {
                    std::swap(v[i - 1], v[rng.below(i)]);
                }
            };
            shuffle(det);
            shuffle(undet);
            // Half detected, half undetected; either side tops up the other.
            size_t nu = std::min<size_t>(undet.size(), kOracleSample / 2);
            const size_t nd = std::min<size_t>(det.size(), kOracleSample - nu);
            nu = std::min<size_t>(undet.size(), kOracleSample - nd);
            std::vector<uint32_t> pick(det.begin(), det.begin() + nd);
            pick.insert(pick.end(), undet.begin(), undet.begin() + nu);
            std::vector<fault::Fault> subset;
            for (uint32_t i : pick) subset.push_back(faults[i]);
            const std::vector<bool> oracle =
                oracle_verdicts(*circ.compiled, subset, in.spec);
            for (size_t i = 0; i < pick.size(); ++i) {
                if (oracle[i] != r.result.detected[pick[i]]) {
                    r.failed = true;
                    r.error = "verdict differs from the serial oracle";
                    break;
                }
            }
        }
    };
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();

    for (Run* r : all) {
        if (r->failed || !r->repeat) continue;
        const auto it = original.find(r->input);
        if (it == original.end() || it->second->failed) {
            r->failed = true;
            r->error = "repeat of a failed campaign";
        } else if (r->result.detected != it->second->result.detected) {
            r->failed = true;
            r->error = "repeat bitmap differs from its original";
        }
    }
}

// ---------------------------------------------------------------------------
// Metric reduction.
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One round's campaigns (see WorkloadConfig::round_size).
struct Round {
    std::vector<const Run*> runs;
    [[nodiscard]] double wall() const {
        double s = 0.0;
        for (const Run* r : runs) s += r->latency();
        return s;
    }
};

std::vector<Round> complete_rounds(const Measurement& m, bool traced,
                                   size_t round_size) {
    std::map<size_t, Round> by_round;
    for (const Run& r : m.runs) {
        if (r.traced == traced) by_round[r.round].runs.push_back(&r);
    }
    std::vector<Round> out;
    for (auto& [idx, round] : by_round) {
        if (round.runs.size() == round_size) out.push_back(round);
    }
    return out;
}

double median_round_wall(const std::vector<Round>& rounds) {
    std::vector<double> w;
    for (const Round& r : rounds) w.push_back(r.wall());
    return median(w);
}

/// Each circuit's median latency for one class, combined over circuits by
/// geometric mean (the plain median for one-circuit workloads). A median
/// over suite_cold's ten differently sized circuits would sit on the gap
/// between two of them and jump when they swap.
double class_latency_p50(const Measurement& m, bool repeat) {
    std::map<size_t, std::vector<double>> per_circuit;
    for (const Run& r : m.runs) {
        if (!r.traced && r.repeat == repeat) {
            per_circuit[m.inputs[r.input].circuit].push_back(r.latency());
        }
    }
    if (per_circuit.empty()) return 0.0;
    double log_sum = 0.0;
    for (auto& [c, v] : per_circuit) log_sum += std::log(median(v));
    return std::exp(log_sum / static_cast<double>(per_circuit.size()));
}

/// Critical unit of a campaign: the one whose queue + engine + shipping
/// ends last. Returns its (queue, engine, ship) seconds.
struct Critical {
    double queue = 0.0;
    double engine = 0.0;
    double ship = 0.0;
    [[nodiscard]] double total() const { return queue + engine + ship; }
};

Critical critical_unit(const Run& r) {
    Critical best;
    for (const core::ShardBreakdown& s : r.result.stats.shards) {
        const Critical c{s.queue_seconds, s.wall_seconds, s.rtt_seconds};
        if (c.total() > best.total()) best = c;
    }
    return best;
}

double peak_rss_mb() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB -> MiB
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".";
    std::string trace_out;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--work-dir") {
            a.work_dir = v;
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            throw std::invalid_argument("unknown argument '" + k + "'");
        }
    }
    if (a.workload.empty()) throw std::invalid_argument("--workload missing");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return a;
}

/// Appends the campaign and unit spans of one traced run, rebuilt from the
/// benchmark's own submit/wait timestamps, each unit's ShardObserver arrival
/// and its ShardBreakdown: a unit ends when its event lands, shipping (remote
/// units) and the engine run precede that, and the queue span fills the gap
/// back to submit. The campaign's tail runs from its last arrival to wait().
void add_run_spans(const Run& r, const Input& in,
                   const std::vector<Circuit>& circuits,
                   std::vector<Span>& spans) {
    const int pid = 1;
    const std::string label = circuits[in.circuit].bench->name +
                              (r.repeat ? " repeat" : " fresh");
    spans.push_back({"campaign " + label, pid, 0, r.t_begin, r.t_end});
    spans.push_back({"session.submit", pid, 0, r.t_begin, r.t_submitted});
    double last = r.t_submitted;
    for (const core::ShardBreakdown& s : r.result.stats.shards) {
        const int tid = 1 + static_cast<int>(s.shard);
        const double end = r.landed && s.shard < r.landed->size()
                               ? (*r.landed)[s.shard]
                               : r.t_end;
        const double shipped = end - s.rtt_seconds;
        const double started = std::max(r.t_submitted,
                                        shipped - s.wall_seconds);
        spans.push_back({"scheduler.queue", pid, tid, r.t_submitted,
                         started});
        spans.push_back({s.remote ? "concurrent_sim.run remote"
                                  : "concurrent_sim.run",
                         pid, tid, started, shipped});
        if (s.remote) spans.push_back({"remote.ship", pid, tid, shipped, end});
        last = std::max(last, end);
    }
    spans.push_back({"scheduler.tail", pid, 0, std::min(last, r.t_end),
                     r.t_end});
}

std::vector<Metric> end_to_end_metrics(const WorkloadConfig& w,
                                       const Measurement& m,
                                       const std::vector<double>& setups,
                                       double rss,
                                       uint64_t attempted, uint64_t failed) {
    std::vector<double> lat;
    for (const Run& r : m.runs) lat.push_back(r.latency());
    const double span = m.t_end - m.t_begin;
    const std::vector<Round> rounds = complete_rounds(m, false, w.round_size);
    const double tail = percentile(lat, w.tail_pct);
    size_t beyond = 0;
    for (double l : lat) beyond += l > tail ? 1 : 0;
    std::printf("latency_tail_s is p%g of %zu campaigns (%zu beyond it)\n",
                w.tail_pct * 100.0, lat.size(), beyond);
    for (const bool repeat : {false, true}) {
        std::vector<double> v;
        for (const Run& r : m.runs) {
            if (r.repeat == repeat) v.push_back(r.latency());
        }
        std::printf("%s latencies (%zu): p10 %.6f p50 %.6f p90 %.6f s\n",
                    repeat ? "repeat" : "fresh", v.size(),
                    percentile(v, 0.1), percentile(v, 0.5), percentile(v, 0.9));
    }
    std::vector<double> walls;
    for (const Round& r : rounds) walls.push_back(r.wall());
    std::printf("round walls (%zu): min %.4f p25 %.4f p50 %.4f p75 %.4f "
                "max %.4f s\n",
                walls.size(), percentile(walls, 0.0), percentile(walls, 0.25),
                percentile(walls, 0.5), percentile(walls, 0.75),
                percentile(walls, 1.0));
    return {
        {"setup_s", median(setups), "s"},
        {"wall_s", median_round_wall(rounds), "s"},
        {"campaigns_per_s",
         span > 0.0 ? static_cast<double>(lat.size()) / span : 0.0, "1/s"},
        {"miss_latency_p50_s", class_latency_p50(m, false), "s"},
        {"hit_latency_p50_s", class_latency_p50(m, true), "s"},
        {"latency_tail_s", tail, "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"success_share",
         attempted == 0 ? 0.0
                        : static_cast<double>(attempted - failed) /
                              static_cast<double>(attempted),
         "share"},
    };
}

std::vector<Metric> per_layer_metrics(const Measurement& m,
                                      const std::vector<SetupTimes>& setups,
                                      size_t round_size) {
    const auto setup_median = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes& t : setups) v.push_back(t.*field);
        return median(v);
    };

    const std::vector<Round> untraced = complete_rounds(m, false, round_size);
    std::vector<Round> traced = complete_rounds(m, true, round_size);
    if (traced.empty()) throw std::runtime_error("no complete traced round");

    // Times come from the traced round whose wall is the median, so the
    // parts add up: wall = submit + queue + critical unit + tail.
    std::vector<const Round*> by_wall;
    for (const Round& r : traced) by_wall.push_back(&r);
    std::sort(by_wall.begin(), by_wall.end(),
              [](const Round* a, const Round* b) {
                  return a->wall() < b->wall();
              });
    const Round& mid = *by_wall[(by_wall.size() - 1) / 2];
    double submit = 0, queue = 0, critical = 0, tail = 0, busy = 0, beh = 0,
           rtl = 0, blocked = 0, ship = 0;
    for (const Run* r : mid.runs) {
        const Critical c = critical_unit(*r);
        submit += r->t_submitted - r->t_begin;
        queue += c.queue;
        critical += c.engine + c.ship;
        tail += r->latency() - (r->t_submitted - r->t_begin) - c.total();
        for (const core::ShardBreakdown& s : r->result.stats.shards) {
            busy += s.wall_seconds;
            beh += s.behavioral_seconds;
            rtl += s.rtl_seconds;
            blocked += s.stimulus_seconds;
            ship += s.rtt_seconds;
        }
    }

    // Counts come from the first traced round: a fixed set of campaigns, so
    // they repeat exactly wherever the partition and placement do.
    const std::vector<const Run*>& first = traced.front().runs;
    core::Instrumentation st;
    uint64_t units = 0, remote_units = 0, hits = 0, misses = 0;
    uint32_t windows = 1;
    std::vector<double> imbalance;
    for (const Run* r : first) {
        st.merge_from(r->result.stats);
        units += r->result.stats.shards.size();
        hits += r->result.cache_hits;
        misses += r->result.num_faults - r->result.cache_hits;
        std::set<std::pair<uint32_t, uint32_t>> w;
        double max_wall = 0.0, sum_wall = 0.0;
        for (const core::ShardBreakdown& s : r->result.stats.shards) {
            remote_units += s.remote ? 1 : 0;
            w.insert({s.epoch_begin, s.epoch_end});
            max_wall = std::max(max_wall, s.wall_seconds);
            sum_wall += s.wall_seconds;
        }
        windows = std::max(windows, static_cast<uint32_t>(w.size()));
        const size_t n = r->result.stats.shards.size();
        if (n > 0 && sum_wall > 0.0) {
            imbalance.push_back(max_wall / (sum_wall / static_cast<double>(n)));
        }
    }
    const bool cached = m.stats_end.cache.hits + m.stats_end.cache.misses > 0;
    if (!cached) misses = 0;
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double eliminated = static_cast<double>(st.bn_eliminated());
    const double cand = static_cast<double>(st.bn_candidates);
    const core::SchedulerStats& s0 = m.stats_traced_begin;
    const core::SchedulerStats& s1 = m.stats_end;
    const auto count = [](uint64_t v) { return static_cast<double>(v); };

    return {
        {"frontend.parse_s", setup_median(&SetupTimes::parse), "s"},
        {"compiled_design.build_s", setup_median(&SetupTimes::build), "s"},
        {"verdict_cache.load_s", setup_median(&SetupTimes::cache), "s"},
        {"supervisor.start_s", setup_median(&SetupTimes::supervisor), "s"},
        {"session.create_s", setup_median(&SetupTimes::session), "s"},
        {"trace.wall_s", mid.wall(), "s"},
        {"session.submit_call_s", submit, "s"},
        {"scheduler.queue_s", queue, "s"},
        {"shard.critical_s", critical, "s"},
        {"scheduler.tail_s", tail, "s"},
        {"concurrent_sim.busy_s", busy, "s"},
        {"concurrent_sim.behavioral_s", beh, "s"},
        {"concurrent_sim.rtl_s", rtl, "s"},
        {"concurrent_sim.other_s", busy - beh - rtl, "s"},
        {"concurrent_sim.bn_candidates", count(st.bn_candidates), "count"},
        {"concurrent_sim.bn_executed", count(st.bn_executed), "count"},
        {"concurrent_sim.bn_skipped_explicit", count(st.bn_skipped_explicit),
         "count"},
        {"concurrent_sim.bn_skipped_implicit", count(st.bn_skipped_implicit),
         "count"},
        {"concurrent_sim.bn_elim_ratio", ratio(eliminated, cand), "ratio"},
        {"concurrent_sim.implicit_share",
         ratio(static_cast<double>(st.bn_skipped_implicit), cand), "ratio"},
        {"concurrent_sim.bn_good_execs", count(st.bn_good_execs), "count"},
        {"concurrent_sim.rtl_good_evals", count(st.rtl_good_evals), "count"},
        {"concurrent_sim.rtl_fault_evals", count(st.rtl_fault_evals),
         "count"},
        {"bcvm.lane_passes", count(st.bn_lane_passes), "count"},
        {"bcvm.lane_survivors", count(st.bn_lane_survivors), "count"},
        {"bcvm.lane_deferred", count(st.bn_lane_deferred), "count"},
        {"bcvm.defer_ratio",
         ratio(static_cast<double>(st.bn_lane_deferred),
               static_cast<double>(st.bn_lane_deferred +
                                   st.bn_lane_survivors)),
         "ratio"},
        {"stimulus_pipeline.blocked_s", blocked, "s"},
        {"shard.units", count(units), "count"},
        {"shard.imbalance", median(imbalance), "ratio"},
        {"scheduler.epoch_windows", count(windows), "count"},
        {"verdict_cache.hits", count(hits), "count"},
        {"verdict_cache.misses", count(misses), "count"},
        {"verdict_cache.hit_ratio",
         ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
         "ratio"},
        {"verdict_cache.insertions",
         count(s1.cache.insertions - s0.cache.insertions), "count"},
        {"verdict_cache.bytes", count(s1.cache.bytes), "bytes"},
        {"verdict_cache.load_failures", count(s1.cache.load_failures),
         "count"},
        {"remote.units", count(remote_units), "count"},
        {"remote.unit_share",
         ratio(static_cast<double>(remote_units), static_cast<double>(units)),
         "ratio"},
        {"remote.ship_s", ship, "s"},
        {"remote.redispatched",
         count(s1.remote.units_redispatched - s0.remote.units_redispatched),
         "count"},
        {"remote.skipped_cost",
         count(s1.remote.units_skipped_cost - s0.remote.units_skipped_cost),
         "count"},
        {"remote.handshake_failures", count(s1.remote.handshake_failures),
         "count"},
        {"remote.links_lost", count(s1.remote.links_lost), "count"},
        {"trace.overhead_ratio",
         ratio(median_round_wall(traced), median_round_wall(untraced)),
         "ratio"},
    };
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
    for (const Metric& mt : metrics) {
        std::printf("%-38s %16.6f %s\n", mt.name.c_str(), mt.value,
                    mt.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int run(const Args& args) {
    suite::register_remote_stimuli();
    const WorkloadConfig w = workload_config(args.workload);
    std::filesystem::create_directories(args.work_dir);
    const Paths paths{args.work_dir + "/verdicts.store",
                      PERFBENCH_WORKER_BIN,
                      args.work_dir + "/verdicts.store.primed"};
    prime_stores(w, paths);

    std::vector<SetupTimes> setup_times;
    std::vector<double> setup_totals;
    std::vector<Span> spans;
    std::unique_ptr<Env> env;
    const auto set_up_batch = [&] {
        const double end = now_s() + kSetupSeconds;
        for (int i = 0; i < kSetupMinReps || now_s() < end; ++i) {
            env.reset();
            SetupTimes t;
            env = set_up(w, paths, t, args.trace ? &spans : nullptr);
            setup_times.push_back(t);
            setup_totals.push_back(t.total);
        }
    };
    // The last repetition of the first batch serves the workload.
    set_up_batch();

    Measurement m;
    if (w.name == "suite_cold") {
        drive_suite_cold(*env, m, args.seed, args.seconds, args.trace);
    } else {
        drive_epoch_fleet(*env, m, args.seed, args.seconds, args.trace);
    }
    const double rss = peak_rss_mb();

    verify(*env, m, args.seed, host_threads());
    set_up_batch();
    uint64_t attempted = 0;
    uint64_t failed = 0;
    for (const Run& r : m.runs) {
        ++attempted;
        if (r.failed) {
            ++failed;
            std::printf("FAILED campaign (input %zu): %s\n", r.input,
                        r.error.c_str());
        }
    }
    std::printf("workload %s seed %llu: %llu campaigns over %.2f s, "
                "%zu setup repetitions\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(attempted),
                m.t_end - m.t_begin, setup_totals.size());

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = per_layer_metrics(m, setup_times, w.round_size);
        for (const Run& r : m.runs) {
            if (r.traced) {
                add_run_spans(r, m.inputs[r.input], env->circuits, spans);
            }
        }
        if (!args.trace_out.empty() &&
            !write_chrome_trace(args.trace_out, spans)) {
            throw std::runtime_error("cannot write " + args.trace_out);
        }
    } else {
        metrics = end_to_end_metrics(w, m, setup_totals, rss, attempted,
                                     failed);
    }
    env.reset();
    const bool correct = failed == 0;
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
