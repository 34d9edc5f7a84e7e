// GNNOne end-to-end benchmark.
//
//   perfbench --workload <train_gat|serve_closed|serve_open|serve_sharded>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--out <dir>]
//
// Prints one JSON result line last: the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). A traced run also writes
// <out>/<workload>.layers.json (every per-layer metric) and
// <out>/<workload>.spans.json (chrome-trace spans). Exits 1 when an output
// check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "gpusim/launch.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Every per-layer metric a traced run reports, with its unit. A metric of
/// a layer the workload does not run (the sampler on train_gat, the shard
/// layer off serve_sharded) reads 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"gen.dataset_s", "s"},
    {"gen.trace_s", "s"},
    {"graph.formats_s", "s"},
    {"serve.ctor_s", "s"},
    {"gnn.model_ctor_s", "s"},
    {"gpusim.launches_per_item", "count"},
    {"gpusim.ctas_per_launch", "count"},
    {"gpusim.transactions_per_item", "count"},
    {"gpusim.sim_kcycles_per_host_s", "kcycles/s"},
    {"kernels.spmm_host_ms", "ms"},
    {"kernels.sddmm_host_ms", "ms"},
    {"kernels.spmm_kcycles", "kcycles"},
    {"kernels.sddmm_kcycles", "kcycles"},
    {"tensor.matmul_host_ms", "ms"},
    {"tensor.dense_kcycles_per_item", "kcycles"},
    {"tensor.edge_elem_kcycles_per_item", "kcycles"},
    {"gnn.forward_host_ms", "ms"},
    {"gnn.backward_host_ms", "ms"},
    {"gnn.optim_host_ms", "ms"},
    {"gnn.spmm_kcycles_per_item", "kcycles"},
    {"gnn.sddmm_kcycles_per_item", "kcycles"},
    {"sample.host_us_per_request", "us"},
    {"sample.kcycles_per_item", "kcycles"},
    {"sample.block_edges_per_request", "count"},
    {"cache.hit_rate", "share"},
    {"cache.gather_kcycles_per_item", "kcycles"},
    {"cache.miss_bytes_per_item", "B"},
    {"cache.insert_bytes_per_item", "B"},
    {"cache.evictions_per_item", "count"},
    {"cache.gather_host_us_per_batch", "us"},
    {"pipeline.sample_exposed_kcycles", "kcycles"},
    {"pipeline.gather_exposed_kcycles", "kcycles"},
    {"pipeline.forward_exposed_kcycles", "kcycles"},
    {"pipeline.overlapped_share", "share"},
    {"sched.requests_per_batch", "count"},
    {"sched.queue_kcycles_p99", "kcycles"},
    {"sched.service_kcycles_p99", "kcycles"},
    {"sched.peak_queue_depth", "count"},
    {"sched.tight.p99_kcycles", "kcycles"},
    {"sched.tight.attainment", "share"},
    {"sched.loose.p99_kcycles", "kcycles"},
    {"sched.loose.attainment", "share"},
    {"shard.max_device_makespan_kcycles", "kcycles"},
    {"shard.busy_imbalance", "ratio"},
    {"shard.remote_hit_bytes_per_item", "B"},
    {"shard.remote_miss_bytes_per_item", "B"},
    {"shard.handoff_bytes_per_item", "B"},
    {"shard.handoff_kcycles_per_item", "kcycles"},
    {"serve.host_ms_per_batch", "ms"},
    {"serve.residual_host_share", "share"},
    {"serve.rss_kb_per_kreq", "KiB"},
    {"trace.items_per_s", "1/s"},
    {"trace.overhead_share", "share"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_gat|serve_closed|serve_open|serve_sharded> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] [--out <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--threads") a.threads = std::stoi(val);
      else if (key == "--out") a.out_dir = val;
      else usage(("unknown argument " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload != "train_gat" && a.workload != "serve_closed" &&
      a.workload != "serve_open" && a.workload != "serve_sharded") {
    usage("unknown or missing --workload");
  }
  if (!(a.seconds > 0) || a.threads < 1) usage("--seconds and --threads must be positive");
  return a;
}

bool write_layers(const std::string& path, const Metrics& m) {
  std::ofstream f(path);
  f << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    f << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"value\": "
      << fmt(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  f << "\n}\n";
  return bool(f);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  gpusim::set_host_threads(args.threads);
  SpanRecorder rec(args.trace);
  RunResult res;
  try {
    res = args.workload == "train_gat" ? run_train_gat(args, rec)
                                       : run_serving(args, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  Metrics out = res.e2e;
  if (args.trace) {
    out.clear();
    for (const auto& [name, unit] : kLayerMetrics) out[name] = {0.0, unit};
    for (const auto& [name, metric] : res.layers) {
      if (!out.count(name)) {
        std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                     name.c_str());
        return 1;
      }
      out[name] = metric;
    }
    const double untraced = res.e2e["items_per_s"].value;
    out["trace.overhead_share"] = {
        untraced > 0 ? 1.0 - out["trace.items_per_s"].value / untraced : 0.0,
        "share"};
    const std::string base = args.out_dir + "/" + args.workload;
    if (!write_layers(base + ".layers.json", out) ||
        !rec.write_chrome_trace(base + ".spans.json")) {
      std::fprintf(stderr, "perfbench: cannot write trace files to %s\n",
                   args.out_dir.c_str());
      return 1;
    }
  }
  const bool correct = res.checks.ok();
  std::fprintf(stderr, "perfbench: %s seed %llu: %d checks, %s\n",
               args.workload.c_str(), (unsigned long long)args.seed,
               res.checks.count(), correct ? "all passed" : "FAILED");
  std::printf("%s\n",
              result_line(correct, res.attempted, res.failed, out).c_str());
  return correct ? 0 : 1;
}
