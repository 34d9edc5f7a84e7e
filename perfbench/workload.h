// The benchmark's workloads and the result each run hands back to main.cc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/trace.h"
#include "harness.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Host worker threads of the simulator's functional pass
  /// (gpusim::set_host_threads); fixed so host time is comparable.
  int threads = 1;
  /// Directory for the traced run's span file and per-layer JSON.
  std::string out_dir = ".";
};

/// Set-up repetitions per run: set-up time is the median over them.
inline constexpr int kSetupReps = 5;

/// What one run measured. `e2e` is filled on every run; `layers` only on a
/// traced run.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Checks checks;
  Metrics e2e;
  Metrics layers;
};

/// The seven end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;      // one entry per set-up repetition
  double peak_rss_mb = 0.0;
  double items_per_s = 0.0;
  double kcycles_per_item = 0.0;
  double p50_kcycles = 0.0;
  double p99_kcycles = 0.0;
  double makespan_mcycles = 0.0;
  void store(Metrics& m) const {
    m["setup_s"] = {median(setup_s), "s"};
    m["peak_rss_mb"] = {peak_rss_mb, "MiB"};
    m["items_per_s"] = {items_per_s, "1/s"};
    m["modeled_kcycles_per_item"] = {kcycles_per_item, "kcycles"};
    m["modeled_p50_kcycles"] = {p50_kcycles, "kcycles"};
    m["modeled_p99_kcycles"] = {p99_kcycles, "kcycles"};
    m["modeled_makespan_mcycles"] = {makespan_mcycles, "Mcycles"};
  }
};

/// Host time of a timed phase: whole rounds until `budget_s` host seconds
/// have passed (at least one).
struct Rounds {
  std::int64_t items = 0;
  double seconds = 0.0;
  std::vector<double> rates;  // items per host second, one per round
  /// Items per second of the median round: a round slowed by a burst of
  /// foreign load on the host does not move it.
  double median_rate() const { return median(rates); }
};

/// `round` runs one round and returns the items it completed.
template <typename Round>
Rounds run_rounds(double budget_s, Round&& round) {
  Rounds r;
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point tr = Clock::now();
    const std::int64_t n = round();
    r.rates.push_back(double(n) / seconds_since(tr));
    r.items += n;
  } while (seconds_since(t0) < budget_s);
  r.seconds = seconds_since(t0);
  return r;
}

/// Prints each round's rate to stderr (the spread behind the median).
inline void log_rounds(const std::string& workload, const Rounds& r) {
  std::fprintf(stderr, "perfbench: %s round rates (items/s):", workload.c_str());
  for (double x : r.rates) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

/// Prints each set-up repetition's host seconds to stderr.
inline void log_setups(const std::string& workload, const EndToEnd& e) {
  std::fprintf(stderr, "perfbench: %s set-up times (s):", workload.c_str());
  for (double x : e.setup_s) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

/// Launch counters folded from gpusim::Trace during a traced phase.
struct LaunchCounters {
  std::uint64_t launches = 0, ctas = 0, transactions = 0, sim_cycles = 0;

  /// Folds the trace's events in and clears it (keeps memory flat).
  void drain(gpusim::Trace& trace) {
    for (const gpusim::TraceEvent& ev : trace.events()) {
      ++launches;
      ctas += ev.stats.num_ctas;
      transactions += ev.stats.totals.load_transactions +
                      ev.stats.totals.store_transactions;
      sim_cycles += ev.stats.cycles;
    }
    trace.clear();
  }

  /// The gpusim.* per-layer metrics of a traced phase.
  void store(Metrics& m, const Rounds& traced) const {
    const double items = double(std::max<std::int64_t>(traced.items, 1));
    m["gpusim.launches_per_item"] = {double(launches) / items, "count"};
    m["gpusim.ctas_per_launch"] = {
        launches ? double(ctas) / double(launches) : 0.0, "count"};
    m["gpusim.transactions_per_item"] = {double(transactions) / items, "count"};
    m["gpusim.sim_kcycles_per_host_s"] = {
        traced.seconds > 0 ? double(sim_cycles) / 1e3 / traced.seconds : 0.0,
        "kcycles/s"};
    m["trace.items_per_s"] = {traced.rates.empty() ? 0.0 : traced.median_rate(),
                              "1/s"};
  }
};

RunResult run_train_gat(const Args& args, SpanRecorder& rec);
RunResult run_serving(const Args& args, SpanRecorder& rec);

}  // namespace perfbench
