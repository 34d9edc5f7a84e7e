// train_gat: full-graph GAT training (paper §5.3: 5 layers, hidden 16) on
// the GNNOne backend, driven through the public model / autograd /
// optimizer API the way gnn/train.cc's harness drives it.
//
// Host time is dominated by big kernel launches (the gpusim functional pass
// and coalescing model under the GNNOne SpMM/SDDMM); identical launches
// repeat every epoch. No sampler, cache, scheduler or sharding runs here,
// so a serving-side change should leave every figure of this workload
// unchanged.
#include <cmath>
#include <memory>
#include <numeric>

#include "core/gnnone.h"
#include "gen/rng.h"
#include "kernels/reference.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gnnone;

/// LiveJournal stand-in: the largest power-law (skewed) graph of the
/// training suite, ~250k edges.
constexpr const char* kGraph = "G13";
constexpr int kInDim = 64;
constexpr const char* kModel = "gat";

/// The dataset with its vertices renumbered by a permutation drawn from the
/// seed: an isomorphic graph whose memory layout, and so whose modeled
/// cycles, depend on the seed while its structure does not.
Dataset seeded_dataset(std::uint64_t seed) {
  Dataset ds = make_dataset(kGraph);
  const vid_t n = ds.coo.num_rows;
  std::vector<vid_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 13);
  for (vid_t i = n - 1; i > 0; --i) {
    std::swap(perm[std::size_t(i)],
              perm[std::size_t(rng.uniform(std::uint64_t(i) + 1))]);
  }
  EdgeList edges;
  edges.reserve(std::size_t(ds.coo.nnz()));
  for (eid_t e = 0; e < ds.coo.nnz(); ++e) {
    edges.emplace_back(perm[std::size_t(ds.coo.row[std::size_t(e)])],
                       perm[std::size_t(ds.coo.col[std::size_t(e)])]);
  }
  ds.coo = coo_from_edges(n, n, std::move(edges));
  return ds;
}

/// Everything one training run holds. Heap-allocated and never moved: the
/// op context points at the ledger.
struct TrainState {
  Dataset ds;
  std::unique_ptr<SparseEngine> engine;
  std::unique_ptr<GnnModel> model;
  std::unique_ptr<Adam> opt;
  VarPtr x;
  std::vector<int> train_labels;
  CycleLedger ledger;
  OpContext ctx;
  int epoch = 0;
};

struct EpochResult {
  std::uint64_t cycles = 0;
  float loss = 0.0f;
};

/// One training epoch, mirroring train_model's loop (same seeds, same
/// epoch-seed schedule), with a span around each public call.
EpochResult run_epoch(TrainState& st, std::uint64_t seed, SpanRecorder& rec) {
  const std::uint64_t before = st.ledger.total();
  EpochResult r;
  VarPtr loss;
  st.opt->zero_grad();
  {
    ScopedSpan s(rec, "gnn.forward");
    const VarPtr logp = st.model->forward(
        st.ctx, *st.engine, st.x, seed + std::uint64_t(st.epoch) * 131);
    loss = vnll_loss(st.ctx, logp, st.train_labels);
  }
  r.loss = loss->value.numel() > 0 ? loss->value[0] : 0.0f;
  {
    ScopedSpan s(rec, "gnn.backward");
    backward(loss);
  }
  {
    ScopedSpan s(rec, "tensor.Adam.step");
    st.opt->step();
  }
  ++st.epoch;
  r.cycles = st.ledger.total() - before;
  return r;
}

TrainOptions train_options(std::uint64_t seed) {
  TrainOptions o;
  o.epochs = 1;
  o.measured_epochs = 1;
  o.seed = seed;
  o.feature_dim_override = kInDim;
  o.eval_accuracy = false;
  return o;
}

/// Set-up: dataset, formats, model and optimizer, features and labels as
/// train_model builds them, then one untimed warm-up epoch.
std::unique_ptr<TrainState> setup(std::uint64_t seed, SpanRecorder& rec,
                                  EpochResult* warmup) {
  const gpusim::DeviceSpec& dev = gpusim::default_device();
  const TrainOptions opts = train_options(seed);
  auto st = std::make_unique<TrainState>();
  {
    ScopedSpan s(rec, "gen.make_dataset");
    st->ds = seeded_dataset(seed);
  }
  const Dataset& ds = st->ds;
  {
    ScopedSpan s(rec, "graph.formats");
    st->engine = std::make_unique<SparseEngine>(Backend::kGnnOne, ds.coo, dev);
  }
  {
    ScopedSpan s(rec, "gnn.model_ctor");
    st->model = make_model(kModel, *st->engine,
                           model_config_for(kModel, kInDim, ds.num_classes));
    st->opt = std::make_unique<Adam>(st->model->params(), opts.lr);
  }
  {
    ScopedSpan s(rec, "gen.make_features");
    std::vector<int> labels = ds.labels;
    if (labels.empty()) {
      labels.resize(std::size_t(ds.coo.num_rows));
      Rng lr(opts.seed);
      for (auto& l : labels) l = int(lr.uniform(std::uint64_t(ds.num_classes)));
    }
    st->x = make_var(
        Tensor::from(ds.coo.num_rows, kInDim,
                     make_features(ds.coo.num_rows, kInDim,
                                   ds.labeled ? ds.labels : std::vector<int>{},
                                   opts.seed)),
        false);
    st->train_labels.assign(labels.size(), -1);
    Rng split_rng(opts.seed + 7);
    for (std::size_t v = 0; v < labels.size(); ++v) {
      if (split_rng.uniform_real() < opts.train_fraction) {
        st->train_labels[v] = labels[v];
      }
    }
  }
  st->ctx.dev = &dev;
  st->ctx.ledger = &st->ledger;
  st->ctx.training = true;
  {
    ScopedSpan s(rec, "warmup");
    *warmup = run_epoch(*st, seed, rec);
  }
  return st;
}

bool close_to_reference(std::span<const float> got,
                        std::span<const float> want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= 1e-3f * (1.0f + std::fabs(want[i])))) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_train_gat(const Args& args, SpanRecorder& rec) {
  RunResult res;
  EndToEnd e2e;
  std::unique_ptr<TrainState> st;
  EpochResult warmup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan s(rec, "setup");
    st = setup(args.seed, rec, &warmup);
    e2e.setup_s.push_back(seconds_since(t0));
  }
  res.checks.expect(std::isfinite(warmup.loss), "warm-up loss is finite");

  // Timed phase: whole epochs. A traced run spends the first half untraced
  // (the overhead reference) and the second half under gpusim::Trace.
  std::vector<EpochResult> epochs;
  auto epoch_round = [&] {
    epochs.push_back(run_epoch(*st, args.seed, rec));
    return 1;
  };
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  rec.set_enabled(false);
  const Rounds untraced = run_rounds(untraced_budget, epoch_round);
  e2e.items_per_s = untraced.median_rate();
  log_setups(args.workload, e2e);
  log_rounds(args.workload, untraced);
  e2e.peak_rss_mb = peak_rss_mb();

  // Trace counters of the traced half.
  LaunchCounters counters;
  Rounds traced;
  if (args.trace) {
    rec.set_enabled(true);
    gpusim::Trace trace;
    traced = run_rounds(args.seconds / 2, [&] {
      const int n = epoch_round();
      counters.drain(trace);
      return n;
    });
  }
  res.attempted = std::int64_t(epochs.size());

  // Checks: finite losses, identical epoch cycles, agreement with the
  // library's own training harness, kernels against the CPU reference.
  for (const EpochResult& ep : epochs) {
    if (!std::isfinite(ep.loss)) ++res.failed;
    res.checks.expect(ep.cycles == warmup.cycles,
                      "every epoch has the warm-up epoch's modeled cycles");
  }
  const TrainResult tr =
      train_model(Backend::kGnnOne, st->ds, kModel, gpusim::default_device(),
                  train_options(args.seed));
  res.checks.expect(tr.ran, "train_model ran: " + tr.fail_reason);
  res.checks.expect(tr.cycles_per_epoch == warmup.cycles,
                    "epoch cycles equal train_model's cycles_per_epoch (" +
                        std::to_string(warmup.cycles) + " vs " +
                        std::to_string(tr.cycles_per_epoch) + ")");

  const Coo& g = st->ds.coo;
  const int f = 16;  // the model's hidden width
  const std::size_t n = std::size_t(g.num_rows);
  const auto x = uniform_values(n * f, args.seed + 1, -1.0f, 1.0f);
  const auto x2 = uniform_values(n * f, args.seed + 2, -1.0f, 1.0f);
  const auto ev = uniform_values(std::size_t(g.nnz()), args.seed + 3, 0.0f, 1.0f);
  std::vector<float> y(n * f), y_ref(n * f), w(std::size_t(g.nnz())),
      w_ref(std::size_t(g.nnz()));
  const Context ctx;
  gpusim::KernelStats spmm_stats, sddmm_stats;
  const double spmm_ms = median_call_ms(args.trace ? 3 : 1, rec, "kernels.spmm",
                                        [&] { spmm_stats = ctx.spmm(g, ev, x, f, y); });
  const double sddmm_ms =
      median_call_ms(args.trace ? 3 : 1, rec, "kernels.sddmm",
                     [&] { sddmm_stats = ctx.sddmm(g, x, x2, f, w); });
  ref::spmm(g, ev, x, f, y_ref);
  ref::sddmm(g, x, x2, f, w_ref);
  res.checks.expect(close_to_reference(y, y_ref),
                    "GNNOne SpMM agrees with the reference within 1e-3");
  res.checks.expect(close_to_reference(w, w_ref),
                    "GNNOne SDDMM agrees with the reference within 1e-3");

  // End-to-end: every epoch is one item with identical modeled cycles.
  const double kc = double(warmup.cycles) / 1e3;
  e2e.kcycles_per_item = kc;
  e2e.p50_kcycles = kc;
  e2e.p99_kcycles = kc;
  e2e.makespan_mcycles = kc / 1e3;  // a round is one epoch
  e2e.store(res.e2e);

  if (!args.trace) return res;

  // Per-layer metrics of the traced run.
  Metrics& L = res.layers;
  auto setup_median = [&](const std::string& name) {
    return rec.median_of_first(name, kSetupReps);
  };
  L["gen.dataset_s"] = {setup_median("gen.make_dataset") +
                            setup_median("gen.make_features"),
                        "s"};
  L["graph.formats_s"] = {setup_median("graph.formats"), "s"};
  L["gnn.model_ctor_s"] = {setup_median("gnn.model_ctor"), "s"};
  counters.store(L, traced);
  L["kernels.spmm_host_ms"] = {spmm_ms, "ms"};
  L["kernels.sddmm_host_ms"] = {sddmm_ms, "ms"};
  L["kernels.spmm_kcycles"] = {double(spmm_stats.cycles) / 1e3, "kcycles"};
  L["kernels.sddmm_kcycles"] = {double(sddmm_stats.cycles) / 1e3, "kcycles"};
  {
    const Tensor a = Tensor::from(std::int64_t(n), kInDim,
                                  uniform_values(n * kInDim, args.seed + 4, -1, 1));
    const Tensor b = Tensor::from(kInDim, f,
                                  uniform_values(std::size_t(kInDim) * f,
                                                 args.seed + 5, -1, 1));
    L["tensor.matmul_host_ms"] = {
        median_call_ms(3, rec, "tensor.matmul", [&] { (void)matmul(a, b); }),
        "ms"};
  }
  // Ledger tags per epoch (the ledger holds the warm-up epoch of the last
  // set-up and every epoch since; all are identical).
  const double ledger_epochs = double(st->epoch);
  auto tag_kc = [&](const char* tag) {
    return double(st->ledger.by_tag(tag)) / ledger_epochs / 1e3;
  };
  L["tensor.dense_kcycles_per_item"] = {tag_kc("dense"), "kcycles"};
  L["tensor.edge_elem_kcycles_per_item"] = {tag_kc("edge_elem"), "kcycles"};
  L["gnn.spmm_kcycles_per_item"] = {tag_kc("spmm"), "kcycles"};
  L["gnn.sddmm_kcycles_per_item"] = {tag_kc("sddmm"), "kcycles"};
  L["gnn.forward_host_ms"] = {median(rec.durations("gnn.forward")) * 1e3, "ms"};
  L["gnn.backward_host_ms"] = {median(rec.durations("gnn.backward")) * 1e3,
                               "ms"};
  L["gnn.optim_host_ms"] = {median(rec.durations("tensor.Adam.step")) * 1e3,
                            "ms"};
  return res;
}

}  // namespace perfbench
