// The three serving workloads: closed-loop pipelined serving, open-loop
// two-tenant scheduled serving, and sharded serving on four devices.
//
// Each run builds one long request trace from the seed, constructs an
// InferenceServer, and serves the whole trace once per round for the timed
// phase. Every round must produce the same report (the server is
// deterministic), so the modeled metrics come from one round.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_set>

#include "core/gnnone.h"
#include "serve/cache_policy.h"
#include "tensor/tensor.h"
#include "util/stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gnnone;
using serve::CachePolicy;
using serve::ShardRole;

constexpr int kHidden = 16;  // GCN/GAT hidden width (paper §5.3)

/// A serving workload: the graph, how its trace is drawn, and the server.
struct ServeConfig {
  std::string graph;
  ServeOptions opts;
  /// Closed-loop trace shape (serve_closed, serve_sharded).
  RequestTraceOptions requests;
  /// Open-loop tenants (serve_open): one TenantWorkload per TenantSpec.
  std::vector<TenantWorkload> tenant_traffic;
};

/// A closed-loop trace of `n` requests with 1-4 seeds each. With `skewed`,
/// 80% of seeds come from the top-5% degree set. Those two figures are an
/// unverified assumption (no published serving trace backs them); they only
/// make a hot set that a cache can exploit. Without `skewed`, seeds are
/// uniform over the graph, as in the repository's serving benches.
RequestTraceOptions trace_options(int n, std::uint64_t seed, bool skewed) {
  RequestTraceOptions r;
  r.num_requests = n;
  r.min_seeds = 1;
  r.max_seeds = 4;
  r.hot_fraction = skewed ? 0.8 : 0.0;
  r.hot_set_fraction = 0.05;
  r.seed = seed;
  return r;
}

ServeConfig config_for(const std::string& workload, std::uint64_t seed) {
  ServeConfig c;
  ServeOptions& o = c.opts;
  o.seed = seed;
  o.batch_size = 32;
  o.fanouts = {10, 5};
  o.cache_alpha = 0.1;
  o.backend = Backend::kAuto;
  if (workload == "serve_closed") {
    c.graph = "G10";  // Kron-21 stand-in
    o.model_kind = "gcn";
    o.pipeline = true;
    o.cache_policy = CachePolicy::kPresampleFrequency;
    c.requests = trace_options(2048, seed, /*skewed=*/true);
  } else if (workload == "serve_open") {
    c.graph = "G4";  // wiki-Talk stand-in: power-law, 37k vertices
    o.cache_policy = CachePolicy::kClock;
    o.partition_cache = true;
    o.scheduler.policy = serve::SchedulerPolicy::kEdf;
    serve::TenantSpec tight;
    tight.name = "tight";
    tight.model_kind = "gcn";
    tight.fanouts = {5, 3};
    tight.slo_cycles = 250'000;
    tight.cache_share = 0.5;
    serve::TenantSpec loose;
    loose.name = "loose";
    loose.model_kind = "gat";
    loose.fanouts = {10, 5};
    loose.slo_cycles = 1'500'000;
    loose.cache_share = 0.5;
    o.tenants = {tight, loose};
    TenantWorkload t0, t1;
    t0.requests = trace_options(2048, seed, /*skewed=*/false);
    t0.arrivals.process = ArrivalProcess::kPoisson;
    t0.arrivals.mean_interarrival_cycles = 40'000;
    // Arrival streams have fixed seeds: every seed offers the same traffic
    // shape, so queueing differs between seeds only through what the
    // requests ask for (which vertices, hence their service cycles).
    t0.arrivals.seed = 101;
    t1.requests = trace_options(1024, seed + 1, /*skewed=*/false);
    t1.arrivals.process = ArrivalProcess::kBursty;
    t1.arrivals.mean_interarrival_cycles = 80'000;
    t1.arrivals.period_cycles = 4'000'000;
    t1.arrivals.seed = 202;
    c.tenant_traffic = {t0, t1};
  } else {  // serve_sharded
    c.graph = "G10";
    o.model_kind = "gat";
    o.shard.num_devices = 4;
    o.shard.roles = {ShardRole::kSampler, ShardRole::kSampler,
                     ShardRole::kForward, ShardRole::kForward};
    c.requests = trace_options(1024, seed, /*skewed=*/false);
  }
  return c;
}

/// One set-up's state. Heap-allocated and never moved: the server keeps a
/// pointer to the dataset.
struct ServeState {
  Dataset ds;
  std::vector<SeedRequest> trace;
  std::unique_ptr<InferenceServer> server;
};

std::unique_ptr<ServeState> setup(const ServeConfig& cfg, SpanRecorder& rec) {
  auto st = std::make_unique<ServeState>();
  {
    ScopedSpan s(rec, "gen.make_dataset");
    st->ds = make_dataset(cfg.graph);
  }
  ServeOptions opts = cfg.opts;
  {
    ScopedSpan s(rec, "gen.make_trace");
    if (cfg.tenant_traffic.empty()) {
      st->trace = make_request_trace(st->ds.coo, cfg.requests);
    } else {
      st->trace = make_open_loop_trace(st->ds.coo, cfg.tenant_traffic);
    }
    if (opts.cache_policy == CachePolicy::kPresampleFrequency) {
      // FGNN pre-samples traffic shaped like what it will serve: a probe
      // from the serving distribution under a seed the trace never uses.
      RequestTraceOptions probe = cfg.requests;
      probe.num_requests = 256;
      probe.seed = cfg.requests.seed + 0x5eed;
      opts.presample_probe = make_request_trace(st->ds.coo, probe);
    }
  }
  {
    ScopedSpan s(rec, "serve.ctor");
    st->server = std::make_unique<InferenceServer>(
        st->ds, gpusim::default_device(), opts);
  }
  {
    ScopedSpan s(rec, "warmup");
    const std::size_t n =
        std::min<std::size_t>(st->trace.size(), std::size_t(opts.batch_size));
    (void)st->server->serve(std::span<const SeedRequest>(st->trace.data(), n));
  }
  return st;
}

std::uint64_t latency(const serve::RequestOutcome& o) {
  return o.queue_cycles + o.service_cycles;
}

std::vector<std::uint64_t> served_latencies(const ServingReport& rep) {
  std::vector<std::uint64_t> v;
  for (const auto& o : rep.outcomes) {
    if (serve::is_served(o.status)) v.push_back(latency(o));
  }
  return v;
}

double pct_kcycles(std::vector<std::uint64_t> v, double p) {
  return v.empty() ? 0.0 : double(util::percentile(std::move(v), p)) / 1e3;
}

/// Σ exposed over the three stages (+ idle) against the makespan.
bool exposed_tiles(const ServingReport& r) {
  return r.sample_split.exposed + r.gather_split.exposed +
             r.forward_split.exposed + r.idle_cycles ==
         r.total_cycles;
}

/// A server like the workload's but with `edit` applied, serving `reqs`.
template <typename Edit>
ServingReport serve_variant(const ServeState& st, const ServeConfig& cfg,
                            std::span<const SeedRequest> reqs, Edit&& edit) {
  ServeOptions o = cfg.opts;
  edit(o);
  const InferenceServer server(st.ds, gpusim::default_device(), o);
  return server.serve(reqs);
}

void check_closed(const ServeState& st, const ServeConfig& cfg,
                  const ServingReport& rep, Checks& checks) {
  // A fixed sample of requests (every 64th), each served alone through the
  // serial driver, must predict bit-identically.
  std::vector<SeedRequest> sample;
  std::vector<std::size_t> idx;
  for (std::size_t r = 0; r < st.trace.size(); r += 64) {
    sample.push_back(st.trace[r]);
    idx.push_back(r);
  }
  const ServingReport alone = serve_variant(st, cfg, sample, [](ServeOptions& o) {
    o.batch_size = 1;
    o.pipeline = false;
  });
  bool same = alone.predictions.size() == idx.size();
  for (std::size_t i = 0; same && i < idx.size(); ++i) {
    same = alone.predictions[i] == rep.predictions[idx[i]];
  }
  checks.expect(same, "requests served alone predict bit-identically");
  checks.expect(exposed_tiles(rep) && rep.idle_cycles == 0,
                "closed loop: sum of exposed cycles == makespan");
  checks.expect(rep.total_cycles <= rep.serial_cycles,
                "pipelined makespan <= serial cycles");
  std::uint64_t unique = 0;
  for (const BatchStats& b : rep.batches) unique += b.num_unique_vertices;
  checks.expect(rep.cache_hits + rep.cache_misses == unique,
                "cache hits + misses == unique gathered vertices");
}

void check_open(const ServeState& st, const ServeConfig& cfg,
                const ServingReport& rep, Checks& checks) {
  for (const serve::TenantReport& t : rep.tenants) {
    int ok = 0, degraded = 0, rejected = 0, failed = 0, requests = 0;
    for (std::size_t r = 0; r < st.trace.size(); ++r) {
      if (st.trace[r].tenant != t.tenant) continue;
      ++requests;
      const serve::Status s = rep.outcomes[r].status;
      ok += s == serve::Status::kOk;
      degraded += s == serve::Status::kDegraded;
      rejected += s == serve::Status::kRejected;
      failed += !serve::is_served(s) && s != serve::Status::kRejected;
    }
    checks.expect(t.requests == requests && t.served == ok + degraded &&
                      t.degraded == degraded && t.rejected == rejected &&
                      t.failed == failed &&
                      ok + degraded + failed + rejected == t.requests,
                  "tenant " + t.name +
                      ": served + degraded + failed + rejected == requests");
  }
  // Each tenant's requests, served closed-loop by a single-tenant server
  // with the tenant's model and fanouts, must predict identically.
  for (std::size_t t = 0; t < cfg.opts.tenants.size(); ++t) {
    std::vector<SeedRequest> reqs;
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < st.trace.size(); ++r) {
      if (st.trace[r].tenant != int(t)) continue;
      SeedRequest q = st.trace[r];
      q.tenant = 0;
      q.arrival_cycle = 0;
      reqs.push_back(std::move(q));
      idx.push_back(r);
    }
    const serve::TenantSpec spec = cfg.opts.tenants[t];
    const ServingReport closed = serve_variant(st, cfg, reqs, [&](ServeOptions& o) {
      o.tenants.clear();
      o.partition_cache = false;
      o.cache_policy = CachePolicy::kDegree;
      o.model_kind = spec.model_kind;
      o.fanouts = spec.fanouts;
    });
    bool same = closed.predictions.size() == idx.size();
    for (std::size_t i = 0; same && i < idx.size(); ++i) {
      same = closed.predictions[i] == rep.predictions[idx[i]];
    }
    checks.expect(same, "tenant " + spec.name +
                            ": predictions equal closed-loop serving");
  }
  checks.expect(exposed_tiles(rep),
                "open loop: sum of exposed + idle == makespan");
}

void check_sharded(const ServeState& st, const ServeConfig& cfg,
                   const ServingReport& rep, Checks& checks) {
  const ServingReport flat = serve_variant(
      st, cfg, st.trace, [](ServeOptions& o) { o.shard = serve::ShardOptions{}; });
  checks.expect(flat.predictions == rep.predictions,
                "sharded predictions equal unsharded serving");
  std::uint64_t unique = 0;
  for (const BatchStats& b : rep.batches) unique += b.num_unique_vertices;
  const std::size_t row_bytes = std::size_t(st.ds.input_feat_len) * sizeof(float);
  checks.expect(rep.cache_hit_bytes + rep.cache_miss_bytes +
                        rep.remote_hit_bytes + rep.remote_miss_bytes ==
                    unique * row_bytes,
                "byte conservation: hit + miss + remote hit + remote miss");
  const InferenceServer& server = *st.server;
  for (const serve::DeviceShardReport& d : rep.devices) {
    const std::string dev = "device " + std::to_string(d.device);
    checks.expect(d.exposed_cycles + d.idle_cycles == d.makespan,
                  dev + ": sum of exposed + idle == makespan");
    checks.expect(server.shard_memory(d.device).in_use() ==
                      server.shard_cache(d.device).device_bytes(),
                  dev + ": memory in use == pinned cache bytes");
  }
}

/// Host-side replay of the request path's sampling and gathering, with a
/// span around every sample_khop and FeatureCache::gather call. It forms the
/// batches the server formed, from the report: batch b takes the next
/// `rep.batches[b].num_requests` requests of its queue in arrival order,
/// where the queue is the batch's tenant when scheduled, its sampler device
/// when sharded, and the whole trace otherwise.
struct Replay {
  double sample_s = 0.0;
  double gather_s = 0.0;
  int groups = 0;
  bool covers_trace = true;  // the batches took every request exactly once
  Coo first_block;           // block-diagonal block of the first batch
};

Replay replay(const ServeState& st, const ServeConfig& cfg,
              const ServingReport& rep, SpanRecorder& rec) {
  const InferenceServer& server = *st.server;
  const bool scheduled = !cfg.opts.tenants.empty();
  Csr csr;
  {
    ScopedSpan s(rec, "graph.coo_to_csr");
    csr = coo_to_csr(st.ds.coo);
  }
  std::map<int, std::vector<std::size_t>> queues;
  for (std::size_t r = 0; r < st.trace.size(); ++r) {
    const SeedRequest& q = st.trace[r];
    const int key = server.sharded() ? server.shard_map().owner(q.seeds[0])
                    : scheduled      ? q.tenant
                                     : 0;
    queues[key].push_back(r);
  }
  std::map<int, std::size_t> taken;
  Replay out;
  SamplerScratch scratch;
  for (const BatchStats& batch : rep.batches) {
    const int key = server.sharded() ? batch.sampler_device
                    : scheduled      ? batch.tenant
                                     : 0;
    const std::vector<std::size_t>& members = queues[key];
    const std::size_t lo = taken[key];
    const std::size_t hi = lo + std::size_t(batch.num_requests);
    if (hi > members.size()) {
      out.covers_trace = false;
      break;
    }
    taken[key] = hi;
    SampleOptions so;
    so.seed = cfg.opts.seed;
    so.fanouts = scheduled ? cfg.opts.tenants[std::size_t(key)].fanouts
                           : cfg.opts.fanouts;
    std::vector<vid_t> block;
    Coo coo;
    const Clock::time_point ts = Clock::now();
    for (std::size_t i = lo; i < hi; ++i) {
      ScopedSpan s(rec, "sample.sample_khop");
      const SampledSubgraph sub =
          sample_khop(csr, st.trace[members[i]].seeds, so, &scratch);
      if (out.groups == 0) {
        const vid_t base = vid_t(block.size());
        for (vid_t v : sub.coo.row) coo.row.push_back(base + v);
        for (vid_t v : sub.coo.col) coo.col.push_back(base + v);
      }
      block.insert(block.end(), sub.vertices.begin(), sub.vertices.end());
    }
    out.sample_s += seconds_since(ts);
    const Clock::time_point tg = Clock::now();
    {
      ScopedSpan s(rec, "cache.gather");
      std::unordered_set<vid_t> seen;
      std::vector<vid_t> unique;
      for (vid_t v : block) {
        if (seen.insert(v).second) unique.push_back(v);
      }
      if (server.sharded()) {
        std::map<int, std::vector<vid_t>> by_owner;
        for (vid_t v : unique) by_owner[server.shard_map().owner(v)].push_back(v);
        for (const auto& [d, vs] : by_owner) {
          (void)server.shard_cache(d).gather(vs, nullptr, nullptr);
        }
      } else {
        const FeatureCache& fc =
            server.partitioned() ? server.tenant_cache(key) : server.cache();
        (void)fc.gather(unique, nullptr, nullptr);
      }
    }
    out.gather_s += seconds_since(tg);
    if (out.groups == 0) {
      coo.num_rows = coo.num_cols = vid_t(block.size());
      out.first_block = std::move(coo);
    }
    ++out.groups;
  }
  for (const auto& [key, members] : queues) {
    out.covers_trace = out.covers_trace && taken[key] == members.size();
  }
  return out;
}

}  // namespace

RunResult run_serving(const Args& args, SpanRecorder& rec) {
  RunResult res;
  EndToEnd e2e;
  const ServeConfig cfg = config_for(args.workload, args.seed);
  std::unique_ptr<ServeState> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan s(rec, "setup");
    st = setup(cfg, rec);
    e2e.setup_s.push_back(seconds_since(t0));
  }
  const InferenceServer& server = *st->server;

  // Timed phase: whole passes over the trace. Every pass must reproduce the
  // first pass's report exactly.
  std::unique_ptr<ServingReport> first;
  int mismatched_rounds = 0;
  // RSS growth across the first serve() after set-up, with its report kept.
  double rss_growth_kb = 0.0;
  auto round = [&] {
    ServingReport r;
    const double rss_before = first ? 0.0 : rss_kb();
    {
      ScopedSpan s(rec, "serve.serve");
      r = server.serve(st->trace);
    }
    if (!first) rss_growth_kb = rss_kb() - rss_before;
    const int served = r.served_requests();
    res.attempted += r.num_requests;
    res.failed += r.num_requests - served;
    if (!first) {
      first = std::make_unique<ServingReport>(std::move(r));
    } else if (r.total_cycles != first->total_cycles ||
               r.ledger.total() != first->ledger.total() ||
               r.predictions != first->predictions) {
      ++mismatched_rounds;
    }
    return std::int64_t(served);
  };
  rec.set_enabled(false);
  const Rounds untraced =
      run_rounds(args.trace ? args.seconds / 2 : args.seconds, round);
  e2e.items_per_s = untraced.median_rate();
  log_setups(args.workload, e2e);
  log_rounds(args.workload, untraced);
  e2e.peak_rss_mb = peak_rss_mb();

  LaunchCounters counters;
  Rounds traced;
  if (args.trace) {
    rec.set_enabled(true);
    gpusim::Trace trace;
    traced = run_rounds(args.seconds / 2, [&] {
      const std::int64_t n = round();
      counters.drain(trace);
      return n;
    });
  }

  const ServingReport& rep = *first;
  res.checks.expect(mismatched_rounds == 0,
                    "every pass reproduces the first pass's report");
  if (args.workload == "serve_closed") check_closed(*st, cfg, rep, res.checks);
  if (args.workload == "serve_open") check_open(*st, cfg, rep, res.checks);
  if (args.workload == "serve_sharded") check_sharded(*st, cfg, rep, res.checks);

  const double nreq = double(rep.num_requests);
  e2e.kcycles_per_item = double(rep.ledger.total()) / nreq / 1e3;
  e2e.p50_kcycles = pct_kcycles(served_latencies(rep), 50);
  e2e.p99_kcycles = pct_kcycles(served_latencies(rep), 99);
  e2e.makespan_mcycles = double(rep.total_cycles) / 1e6;
  e2e.store(res.e2e);

  if (!args.trace) return res;

  // Per-layer metrics of the traced run.
  Metrics& L = res.layers;
  auto setup_median = [&](const std::string& name) {
    return rec.median_of_first(name, kSetupReps);
  };
  L["gen.dataset_s"] = {setup_median("gen.make_dataset"), "s"};
  L["gen.trace_s"] = {setup_median("gen.make_trace"), "s"};
  L["serve.ctor_s"] = {setup_median("serve.ctor"), "s"};

  counters.store(L, traced);

  const std::vector<double> serve_s = rec.durations("serve.serve");
  const double serve_call_s = median(serve_s);
  const Replay rp = replay(*st, cfg, rep, rec);
  res.checks.expect(rp.covers_trace,
                    "replayed batches take every request exactly once");
  L["graph.formats_s"] = {median(rec.durations("graph.coo_to_csr")), "s"};
  L["sample.host_us_per_request"] = {rp.sample_s / nreq * 1e6, "us"};
  L["cache.gather_host_us_per_batch"] = {
      rp.groups ? rp.gather_s / rp.groups * 1e6 : 0.0, "us"};
  L["serve.host_ms_per_batch"] = {serve_call_s / rep.num_batches * 1e3, "ms"};
  L["serve.residual_host_share"] = {
      serve_call_s > 0 ? 1.0 - (rp.sample_s + rp.gather_s) / serve_call_s : 0.0,
      "share"};
  L["serve.rss_kb_per_kreq"] = {rss_growth_kb / nreq * 1e3, "KiB"};

  // Kernels and the dense transform at a representative batch block.
  {
    const Coo& g = rp.first_block;
    const std::size_t n = std::size_t(g.num_rows);
    const auto x = uniform_values(n * kHidden, args.seed + 1);
    const auto x2 = uniform_values(n * kHidden, args.seed + 2);
    const auto ev = uniform_values(std::size_t(g.nnz()), args.seed + 3);
    std::vector<float> y(n * kHidden), w(std::size_t(g.nnz()));
    const Context ctx;
    gpusim::KernelStats sp, sd;
    L["kernels.spmm_host_ms"] = {
        median_call_ms(5, rec, "kernels.spmm",
                       [&] { sp = ctx.spmm(g, ev, x, kHidden, y); }),
        "ms"};
    L["kernels.sddmm_host_ms"] = {
        median_call_ms(5, rec, "kernels.sddmm",
                       [&] { sd = ctx.sddmm(g, x, x2, kHidden, w); }),
        "ms"};
    L["kernels.spmm_kcycles"] = {double(sp.cycles) / 1e3, "kcycles"};
    L["kernels.sddmm_kcycles"] = {double(sd.cycles) / 1e3, "kcycles"};
    const int in_dim = st->ds.input_feat_len;
    const Tensor a = Tensor::from(std::int64_t(n), in_dim,
                                  uniform_values(n * std::size_t(in_dim), args.seed + 4));
    const Tensor b = Tensor::from(in_dim, kHidden,
                                  uniform_values(std::size_t(in_dim) * kHidden,
                                                 args.seed + 5));
    L["tensor.matmul_host_ms"] = {
        median_call_ms(5, rec, "tensor.matmul", [&] { (void)matmul(a, b); }),
        "ms"};
  }

  auto tag_kc = [&](const char* tag) {
    return double(rep.ledger.by_tag(tag)) / nreq / 1e3;
  };
  L["tensor.dense_kcycles_per_item"] = {tag_kc("dense"), "kcycles"};
  L["tensor.edge_elem_kcycles_per_item"] = {tag_kc("edge_elem"), "kcycles"};
  L["gnn.spmm_kcycles_per_item"] = {tag_kc("spmm"), "kcycles"};
  L["gnn.sddmm_kcycles_per_item"] = {tag_kc("sddmm"), "kcycles"};
  L["sample.kcycles_per_item"] = {tag_kc("sample"), "kcycles"};
  L["cache.gather_kcycles_per_item"] = {tag_kc("feature_gather"), "kcycles"};

  std::uint64_t block_edges = 0, handoff_cycles = 0;
  for (const BatchStats& b : rep.batches) {
    block_edges += std::uint64_t(b.num_edges);
    handoff_cycles += b.handoff_cycles;
  }
  L["sample.block_edges_per_request"] = {double(block_edges) / nreq, "count"};
  const double looked_up = double(rep.cache_hits + rep.cache_misses +
                                  rep.remote_hits + rep.remote_misses);
  L["cache.hit_rate"] = {
      looked_up > 0 ? double(rep.cache_hits + rep.remote_hits) / looked_up : 0.0,
      "share"};
  L["cache.miss_bytes_per_item"] = {
      double(rep.cache_miss_bytes + rep.remote_miss_bytes) / nreq, "B"};
  L["cache.insert_bytes_per_item"] = {double(rep.cache_insert_bytes) / nreq, "B"};
  L["cache.evictions_per_item"] = {double(rep.cache_evictions) / nreq, "count"};

  L["pipeline.sample_exposed_kcycles"] = {double(rep.sample_split.exposed) / 1e3,
                                          "kcycles"};
  L["pipeline.gather_exposed_kcycles"] = {double(rep.gather_split.exposed) / 1e3,
                                          "kcycles"};
  L["pipeline.forward_exposed_kcycles"] = {
      double(rep.forward_split.exposed) / 1e3, "kcycles"};
  L["pipeline.overlapped_share"] = {
      rep.serial_cycles
          ? double(rep.sample_split.overlapped + rep.gather_split.overlapped +
                   rep.forward_split.overlapped) /
                double(rep.serial_cycles)
          : 0.0,
      "share"};

  if (!rep.tenants.empty()) {
    std::vector<std::uint64_t> queue, service;
    for (const auto& o : rep.outcomes) {
      queue.push_back(o.queue_cycles);
      service.push_back(o.service_cycles);
    }
    L["sched.requests_per_batch"] = {nreq / rep.num_batches, "count"};
    L["sched.queue_kcycles_p99"] = {pct_kcycles(queue, 99), "kcycles"};
    L["sched.service_kcycles_p99"] = {pct_kcycles(service, 99), "kcycles"};
    L["sched.peak_queue_depth"] = {double(rep.peak_queue_depth), "count"};
    for (const serve::TenantReport& t : rep.tenants) {
      L["sched." + t.name + ".p99_kcycles"] = {
          double(t.p99_latency_cycles) / 1e3, "kcycles"};
      L["sched." + t.name + ".attainment"] = {t.attainment, "share"};
    }
  }

  if (!rep.devices.empty()) {
    std::uint64_t max_span = 0, max_busy = 0, sum_busy = 0;
    for (const serve::DeviceShardReport& d : rep.devices) {
      max_span = std::max(max_span, d.makespan);
      max_busy = std::max(max_busy, d.exposed_cycles);
      sum_busy += d.exposed_cycles;
    }
    const double mean_busy = double(sum_busy) / double(rep.devices.size());
    L["shard.max_device_makespan_kcycles"] = {double(max_span) / 1e3, "kcycles"};
    L["shard.busy_imbalance"] = {mean_busy > 0 ? double(max_busy) / mean_busy : 0.0,
                                 "ratio"};
    L["shard.remote_hit_bytes_per_item"] = {double(rep.remote_hit_bytes) / nreq,
                                            "B"};
    L["shard.remote_miss_bytes_per_item"] = {
        double(rep.remote_miss_bytes) / nreq, "B"};
    L["shard.handoff_bytes_per_item"] = {double(rep.handoff_bytes) / nreq, "B"};
    L["shard.handoff_kcycles_per_item"] = {double(handoff_cycles) / nreq / 1e3,
                                           "kcycles"};
  }
  return res;
}

}  // namespace perfbench
