// paper_grid: the paper's whole Fig. 1 loop on Amazon Men at the default
// bench scale, with no disk cache.
//
// The untraced run calls core::run_dataset_experiment and times it. The
// traced run does that too (its wall is the overhead baseline), then
// replays the same work through the layers' public calls, in the same
// order and with the same random streams as core::Pipeline, each call
// inside a stage span that also books CPU time and the kernel cost
// counters it moved.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "attack/attack.hpp"
#include "bench.hpp"
#include "core/experiment.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "data/image_gen.hpp"
#include "metrics/chr.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/ranking.hpp"
#include "metrics/success.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tensor/cost.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace taamr;

constexpr const char* kStages[] = {"data.synth",     "nn.fit",      "nn.extract",
                                   "attack.perturb", "recsys.fit",  "recsys.rank",
                                   "metrics.eval"};
constexpr int kFamilies = static_cast<int>(cost::Kernel::kCount);
constexpr int kSetupRepeats = 4;

// GFLOP/s of one square GEMM through the public matmul on the global pool
// (all hardware threads unless the environment says otherwise).
double gemm_gflops(std::int64_t n) {
  Rng rng(7);
  Tensor a({n, n}), b({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = rng.uniform_f(-1.0f, 1.0f);
    b.data()[i] = rng.uniform_f(-1.0f, 1.0f);
  }
  const std::uint64_t t0 = now_ns();
  const Tensor c = ops::matmul(a, b);
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!std::isfinite(c.data()[0])) throw std::runtime_error("GEMM probe produced NaN");
  return 2.0 * static_cast<double>(n * n * n) / s * 1e-9;
}

// Time, CPU and kernel cost moved per stage of the traced replay.
class Ledger {
 public:
  struct Totals {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double flops[kFamilies] = {};
    double bytes[kFamilies] = {};
  };

  template <class Fn>
  void stage(const char* name, Fn&& fn) {
    double flops[kFamilies], bytes[kFamilies];
    for (int k = 0; k < kFamilies; ++k) {
      const cost::KernelTotals t = cost::totals(static_cast<cost::Kernel>(k));
      flops[k] = t.flops;
      bytes[k] = t.bytes;
    }
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    record_span(name, t0, t1);
    Totals& t = totals_[name];
    t.wall_s += static_cast<double>(t1 - t0) * 1e-9;
    t.cpu_s += process_cpu_s() - cpu0;
    for (int k = 0; k < kFamilies; ++k) {
      const cost::KernelTotals after = cost::totals(static_cast<cost::Kernel>(k));
      t.flops[k] += after.flops - flops[k];
      t.bytes[k] += after.bytes - bytes[k];
    }
  }

  const Totals& operator[](const std::string& name) { return totals_[name]; }
  double total_wall_s() const {
    double s = 0.0;
    for (const auto& [name, t] : totals_) s += t.wall_s;
    return s;
  }

 private:
  std::map<std::string, Totals> totals_;
};

struct Products {
  std::vector<std::int32_t> items;
  Tensor clean;
  Tensor attacked;
  metrics::SuccessStats success;
  metrics::VisualQuality visual;
  Tensor merged_features;
};

// Classifier features of `images`, in the pipeline's extraction chunks.
Tensor extract(nn::Classifier& clf, const Tensor& images) {
  const std::int64_t n = images.dim(0);
  const std::int64_t d = clf.feature_dim();
  const std::int64_t batch = nn::feature_batch_size();
  Tensor out({n, d});
  for (std::int64_t start = 0; start < n; start += batch) {
    const std::int64_t end = std::min(n, start + batch);
    const Tensor feats = clf.features(nn::slice_rows(images, start, end));
    std::memcpy(out.data() + start * d, feats.data(),
                static_cast<std::size_t>((end - start) * d) * sizeof(float));
  }
  return out;
}

// The work of core::run_dataset_experiment, call for call.
core::DatasetResults replay(const core::ExperimentConfig& config, Ledger& ledger,
                            std::size_t& attacked_images) {
  const core::PipelineConfig& pc = config.pipeline;
  Rng rng(pc.seed);  // the pipeline's master stream; forked in its order
  core::DatasetResults results;

  data::ImplicitDataset dataset;
  data::ImageCatalog catalog;
  data::LabelledImages train_set, held_out;
  ledger.stage("data.synth", [&] {
    dataset = data::generate_synthetic_dataset(data::spec_by_name(pc.dataset_name, pc.scale));
    catalog = data::render_catalog(dataset, pc.image_config());
    train_set = data::render_training_set(pc.cnn_images_per_category,
                                          pc.seed ^ 0x11111111u, pc.image_config());
    held_out = data::render_training_set(8, pc.seed ^ 0xabcdef01u, pc.image_config());
  });

  std::optional<nn::Classifier> clf;
  ledger.stage("nn.fit", [&] {
    Rng init_rng = rng.fork(101);
    clf.emplace(pc.cnn_config(), init_rng);
    nn::SgdConfig sgd;
    sgd.learning_rate = 0.05f;
    Rng train_rng = rng.fork(102);
    clf->fit(train_set.images, train_set.labels, pc.cnn_epochs, pc.cnn_batch_size, sgd,
             train_rng, /*verbose=*/false);
  });
  ledger.stage("metrics.eval", [&] {
    results.classifier_accuracy = clf->evaluate_accuracy(held_out.images, held_out.labels);
  });
  Tensor clean;
  ledger.stage("nn.extract", [&] { clean = extract(*clf, catalog.images); });

  results.dataset = dataset.name;
  results.scale = pc.scale;
  results.top_n = pc.top_n;
  const std::int64_t top_n = pc.top_n;

  std::unique_ptr<recsys::Vbpr> vbpr;
  std::unique_ptr<recsys::Amr> amr;
  ledger.stage("recsys.fit", [&] {
    Rng vbpr_rng = rng.fork(201);
    vbpr = std::make_unique<recsys::Vbpr>(dataset, clean, pc.vbpr, vbpr_rng);
    vbpr->fit(dataset, vbpr_rng);
    Rng amr_rng = rng.fork(202);
    recsys::AmrConfig amr_cfg;
    amr_cfg.vbpr = pc.vbpr;
    amr_cfg.adversarial = pc.amr_adversarial;
    amr_cfg.warm_epochs = pc.amr_warm_epochs;
    amr_cfg.adversarial_epochs = pc.amr_adversarial_epochs;
    amr = std::make_unique<recsys::Amr>(dataset, clean, amr_cfg, amr_rng);
    amr->fit(dataset, amr_rng);
  });

  std::vector<std::vector<std::int32_t>> vbpr_lists, amr_lists;
  ledger.stage("recsys.rank", [&] {
    Rng eval_rng(pc.seed ^ 0xe7a1);
    results.vbpr_auc = recsys::sampled_auc(*vbpr, dataset, eval_rng);
    results.amr_auc = recsys::sampled_auc(*amr, dataset, eval_rng);
    vbpr_lists = recsys::top_n_lists(*vbpr, dataset, top_n);
    amr_lists = recsys::top_n_lists(*amr, dataset, top_n);
  });
  ledger.stage("metrics.eval", [&] {
    results.vbpr_hr = metrics::hit_ratio_at_n(vbpr_lists, dataset);
    results.amr_hr = metrics::hit_ratio_at_n(amr_lists, dataset);
    results.vbpr_baseline_chr = metrics::category_hit_ratio_all(vbpr_lists, dataset, top_n);
    results.amr_baseline_chr = metrics::category_hit_ratio_all(amr_lists, dataset, top_n);
  });

  std::map<std::tuple<std::int32_t, std::int32_t, std::string, float>, Products> cache;
  auto products_for = [&](const core::AttackScenario& s, const std::string& key,
                          float eps) -> Products& {
    const auto id = std::make_tuple(s.source_category, s.target_category, key, eps);
    if (auto it = cache.find(id); it != cache.end()) return it->second;
    Products p;
    ledger.stage("attack.perturb", [&] {
      p.items = dataset.items_of_category(s.source_category);
      p.clean = data::gather_images(catalog, p.items);
      attack::AttackConfig cfg;
      cfg.epsilon = attack::epsilon_from_255(eps);
      cfg.targeted = true;
      auto attacker = attack::make(key, cfg);
      const std::vector<std::int64_t> targets(p.items.size(), s.target_category);
      // Core::Pipeline's per-attack stream: the same salt for every key the
      // grid runs (fgsm: 0, pgd: 0x10000).
      const std::uint64_t salt = key == "pgd" ? 0x10000u : 0u;
      Rng attack_rng = rng.fork(0x777 ^ static_cast<std::uint64_t>(s.target_category) ^
                                (static_cast<std::uint64_t>(eps * 16.0f) << 8) ^ salt);
      p.attacked = attacker->perturb(*clf, p.clean, targets, attack_rng);
    });
    attacked_images += p.items.size();
    ledger.stage("metrics.eval", [&] {
      p.success = metrics::attack_success(*clf, p.attacked, s.target_category,
                                          attack::display_name(key));
      p.visual = metrics::average_visual_quality(*clf, p.clean, p.attacked);
    });
    ledger.stage("nn.extract", [&] {
      const Tensor feats = extract(*clf, p.attacked);
      p.merged_features = clean;
      const std::int64_t d = clean.dim(1);
      for (std::size_t b = 0; b < p.items.size(); ++b) {
        std::memcpy(p.merged_features.data() + p.items[b] * d,
                    feats.data() + static_cast<std::int64_t>(b) * d,
                    static_cast<std::size_t>(d) * sizeof(float));
      }
    });
    return cache.emplace(id, std::move(p)).first->second;
  };

  const std::vector<std::pair<std::string, recsys::Vbpr*>> models = {{"VBPR", vbpr.get()},
                                                                     {"AMR", amr.get()}};
  for (const auto& [model_name, model] : models) {
    const auto& baseline =
        model_name == "VBPR" ? results.vbpr_baseline_chr : results.amr_baseline_chr;
    for (const core::AttackScenario& scenario : core::paper_scenarios(dataset.name, model_name)) {
      for (const std::string& key : config.attacks) {
        for (const float eps : config.eps_grid_255) {
          Products& p = products_for(scenario, key, eps);
          std::vector<std::vector<std::int32_t>> lists;
          ledger.stage("recsys.rank", [&] {
            model->set_item_features(p.merged_features);
            lists = recsys::top_n_lists(*model, dataset, top_n);
            model->set_item_features(clean);
          });
          core::CellResult cell;
          cell.model = model_name;
          cell.attack = attack::display_name(key);
          cell.source_category = scenario.source_category;
          cell.target_category = scenario.target_category;
          cell.semantically_similar = scenario.semantically_similar;
          cell.eps_255 = eps;
          cell.chr_before_source = baseline[static_cast<std::size_t>(scenario.source_category)];
          cell.chr_before_target = baseline[static_cast<std::size_t>(scenario.target_category)];
          ledger.stage("metrics.eval", [&] {
            cell.chr_after_source =
                metrics::category_hit_ratio(lists, dataset, scenario.source_category, top_n);
          });
          cell.success_rate = p.success.success_rate;
          cell.mean_target_prob = p.success.mean_target_prob;
          cell.psnr = p.visual.psnr;
          cell.ssim = p.visual.ssim;
          cell.psm = p.visual.psm;
          results.cells.push_back(cell);
        }
      }
    }
  }

  // Fig. 2 (PGD eps=8 against VBPR, similar scenario): median rank of every
  // attacked item over a user sample before and after, then the classifier
  // and image-quality numbers of the showcased item.
  const core::AttackScenario fig2 = core::paper_scenarios(dataset.name, "VBPR").front();
  Products& p = products_for(fig2, "pgd", 8.0f);
  std::vector<std::vector<double>> before(p.items.size()), after(p.items.size());
  ledger.stage("recsys.rank", [&] {
    std::vector<float> scores(static_cast<std::size_t>(dataset.num_items));
    auto collect = [&](std::vector<std::vector<double>>& out) {
      for (std::int64_t u = 0; u < std::min<std::int64_t>(dataset.num_users, 60); ++u) {
        vbpr->score_all(u, scores);
        for (std::size_t a = 0; a < p.items.size(); ++a) {
          if (dataset.user_interacted(u, p.items[a])) continue;
          const float s = scores[static_cast<std::size_t>(p.items[a])];
          out[a].push_back(static_cast<double>(
              1 + std::count_if(scores.begin(), scores.end(), [s](float v) { return v > s; })));
        }
      }
    };
    collect(before);
    vbpr->set_item_features(p.merged_features);
    collect(after);
    vbpr->set_item_features(clean);
  });
  ledger.stage("metrics.eval", [&] {
    const Tensor probs_after = clf->probabilities(p.attacked);
    const auto pred_after = clf->predict(p.attacked);
    std::size_t best = 0;
    double best_gain = -1e18;
    for (std::size_t i = 0; i < p.items.size(); ++i) {
      const double gain = median_of(before[i]).value - median_of(after[i]).value;
      const bool flipped = pred_after[i] == fig2.target_category;
      if ((flipped || best_gain == -1e18) && gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    const Tensor probs_before = clf->probabilities(p.clean);
    results.fig2.item = p.items[best];
    results.fig2.source_prob_before =
        probs_before.at(static_cast<std::int64_t>(best), fig2.source_category);
    results.fig2.target_prob_after =
        probs_after.at(static_cast<std::int64_t>(best), fig2.target_category);
    const std::int64_t elems = p.clean.numel() / p.clean.dim(0);
    const Shape shape = {p.clean.dim(1), p.clean.dim(2), p.clean.dim(3)};
    Tensor a(shape), b(shape);
    std::copy(p.clean.data() + best * elems, p.clean.data() + (best + 1) * elems, a.data());
    std::copy(p.attacked.data() + best * elems, p.attacked.data() + (best + 1) * elems,
              b.data());
    results.fig2.psnr = metrics::psnr(a, b);
    results.fig2.ssim = metrics::ssim(a, b);
  });
  return results;
}

// FNV-1a over the bits of every Table II-IV value, in grid order, as hex.
std::string digest(const core::DatasetResults& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const core::CellResult& c : r.cells) {
    for (const double v : {c.chr_before_source, c.chr_before_target, c.chr_after_source,
                           c.success_rate, c.mean_target_prob, c.psnr, c.ssim, c.psm}) {
      mix(v);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// Orderings from EXPERIMENTS.md that hold at any thread count. Each check
// is one operation of the outcome.
void check_grid(const core::ExperimentConfig& config, const core::DatasetResults& r,
                Outcome& o) {
  const std::size_t per_scenario = config.attacks.size() * config.eps_grid_255.size();
  std::size_t expected = 0;
  for (const std::string model : {"VBPR", "AMR"}) {
    expected += core::paper_scenarios(r.dataset, model).size() * per_scenario;
  }
  o.check(r.cells.size() == expected ? ""
                                     : "grid has " + std::to_string(r.cells.size()) +
                                           " cells, expected " + std::to_string(expected));
  for (const core::CellResult& c : r.cells) {
    bool finite = true;
    for (const double v : {c.chr_before_source, c.chr_before_target, c.chr_after_source,
                           c.success_rate, c.mean_target_prob, c.psnr, c.ssim, c.psm}) {
      finite = finite && std::isfinite(v);
    }
    o.check(finite ? "" : "non-finite value in a " + c.model + " " + c.attack + " cell");
  }
  // Cells of one (model, scenario, attack) are consecutive, eps ascending.
  for (std::size_t i = 0; i + per_scenario <= r.cells.size(); i += config.eps_grid_255.size()) {
    for (std::size_t k = i + 1; k < i + config.eps_grid_255.size(); ++k) {
      const auto& lo = r.cells[k - 1];
      const auto& hi = r.cells[k];
      o.check(hi.psnr < lo.psnr ? ""
                                : "PSNR did not fall from eps " + obs::json::number(lo.eps_255) +
                                      " to " + obs::json::number(hi.eps_255) + " (" + hi.model +
                                      " " + hi.attack + ")");
    }
  }
  for (const std::string model : {"VBPR", "AMR"}) {
    const core::CellResult* eps2 = nullptr;
    const core::CellResult* eps16 = nullptr;
    for (const core::CellResult& c : r.cells) {
      if (c.model != model || c.attack != "PGD" || !c.semantically_similar) continue;
      if (c.eps_255 == 2.0f) eps2 = &c;
      if (c.eps_255 == 16.0f) eps16 = &c;
    }
    o.check(eps2 != nullptr && eps16 != nullptr && eps16->success_rate >= eps2->success_rate
                ? ""
                : model + ": PGD success at eps 16 below eps 2 on the similar pair");
  }
  const double chance = 1.0 / static_cast<double>(data::num_categories());
  o.check(r.classifier_accuracy >= 4.0 * chance
              ? ""
              : "held-out accuracy " + obs::json::number(r.classifier_accuracy) +
                    " is not well above chance");
}

}  // namespace

Outcome run_paper_grid(const RunOptions& run) {
  Outcome outcome;
  core::ExperimentConfig config;
  config.pipeline.seed = run.seed;

  // The grid's own set-up: core::Pipeline::prepare's dataset + catalog
  // stage, as the pipeline books it in its public stage accounting, plus
  // kSetupRepeats more runs of the same two public calls after the grid;
  // setup_s is the median of them all.
  obs::Counter& synth_s =
      obs::MetricsRegistry::global().counter("pipeline_stage_seconds_total",
                                            {{"stage", "synthesize_dataset"}});
  const double synth0 = synth_s.value();

  // One grid is the unit of work. A traced run times it as the overhead
  // baseline of its replay.
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  const core::DatasetResults results = core::run_dataset_experiment(config);
  const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double cpu_s = process_cpu_s() - cpu0;
  const double setup_s = synth_s.value() - synth0;
  check_grid(config, results, outcome);
  outcome.lines.push_back("grid_result_digest = " + digest(results));
  outcome.lines.push_back("grid_wall_s = " + obs::json::number(wall_s) + " s (n=1)");

  outcome.lines.push_back("grid_cells_per_s = " +
                          obs::json::number(static_cast<double>(results.cells.size()) / wall_s) +
                          " 1/s (n=" + std::to_string(results.cells.size()) + ")");

  if (!run.trace) {
    std::vector<double> setups = {setup_s};
    const core::PipelineConfig& pc = config.pipeline;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const std::uint64_t s0 = now_ns();
      const data::ImplicitDataset dataset =
          data::generate_synthetic_dataset(data::spec_by_name(pc.dataset_name, pc.scale));
      const data::ImageCatalog catalog = data::render_catalog(dataset, pc.image_config());
      setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    }
    outcome.add("setup_s", median_of(setups).value, "s", setups.size(),
                "the grid's dataset + catalog stage");
    // The grid's wall time moves with the host (README.md); its CPU time,
    // the spinners' left out, is the gated figure.
    outcome.add("cpu_ms_per_op", cpu_s * 1e3, "ms", 1, "process CPU of one grid");
    outcome.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    return outcome;
  }

  // Traced replay.
  cost::enable();
  enable_spans();
  std::vector<double> peak;
  for (int k = 0; k < 5; ++k) peak.push_back(gemm_gflops(512));
  const double peak_gflops = median_of(peak).value;
  Ledger ledger;
  std::size_t attacked_images = 0;
  const double replay_cpu0 = process_cpu_s();
  const std::uint64_t r0 = now_ns();
  const core::DatasetResults replayed = replay(config, ledger, attacked_images);
  const double replay_s = static_cast<double>(now_ns() - r0) * 1e-9;
  const double replay_cpu = process_cpu_s() - replay_cpu0;
  check_grid(config, replayed, outcome);
  outcome.lines.push_back("replay_result_digest = " + digest(replayed));

  const double threads = static_cast<double>(host_threads());
  auto cpu_share = [&](const Ledger::Totals& t) {
    return t.wall_s > 0.0 ? t.cpu_s / (t.wall_s * threads) : 0.0;
  };
  for (const char* stage : kStages) {
    const Ledger::Totals& t = ledger[stage];
    outcome.add(std::string(stage) + "_s", t.wall_s, "s", 1);
    // The data layer does not go through the tensor kernels.
    if (std::string_view(stage) == "data.synth") continue;
    double flops = 0.0;
    for (int k = 0; k < kFamilies; ++k) {
      const std::string family = cost::kernel_name(static_cast<cost::Kernel>(k));
      const std::string prefix = "tensor." + std::string(stage) + "." + family;
      if (static_cast<cost::Kernel>(k) != cost::Kernel::kIm2col) {
        outcome.add(prefix + ".gflop", t.flops[k] * 1e-9, "GFLOP", 1);
      }
      outcome.add(prefix + ".gbyte", t.bytes[k] * 1e-9, "GB", 1);
      flops += t.flops[k];
    }
    outcome.add(std::string(stage) + ".gflops_share",
                t.wall_s > 0.0 ? flops * 1e-9 / t.wall_s / peak_gflops : 0.0, "share", 1);
  }
  outcome.add("nn.fit_cpu_share", cpu_share(ledger["nn.fit"]), "share", 1);
  outcome.add("attack.cpu_share", cpu_share(ledger["attack.perturb"]), "share", 1);
  outcome.add("attack.images_per_s",
              static_cast<double>(attacked_images) / ledger["attack.perturb"].wall_s, "1/s",
              attacked_images);
  outcome.add("core.unattributed_s", replay_s - ledger.total_wall_s(), "s", 1);
  outcome.add("tensor.gemm_peak_gflops", peak_gflops, "GFLOP/s", peak.size());
  outcome.add("tensor.high_water_mb",
              static_cast<double>(cost::tensor_bytes_high_water()) / (1024.0 * 1024.0), "MiB", 1);
  outcome.add("process.cpu_share", replay_cpu / (replay_s * threads), "share", 1);
  outcome.add("trace_overhead_share", (replay_s - wall_s) / wall_s, "share", 1);
  outcome.add("grid.wall_s", wall_s, "s", 1, "the untraced grid");
  return outcome;
}

}  // namespace perfbench
