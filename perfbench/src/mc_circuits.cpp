// mc_circuits — two ckt::MonteCarlo collect sweeps per pass, both
// McPacking::kPackedExact on every core: the inrush deck (a JaInductor
// whose core runs on packed SoA lanes) and the JA transformer deck (a
// JaTransformer, whose core keeps its scalar stamp). Corner counts are set
// so the two decks take roughly equal wall time; the lockstep chunk is set
// explicitly so the lockstep-waste figure has a fixed meaning.
//
// Traced mode replays MonteCarlo's packed lockstep group loop through
// TransientMachine::advance and the packed seam (JaInductor::trial_di /
// arm_trial, TimelessJaBatch::set_state / apply), with every device wrapped
// in a timing Device, and checks the replay's digest against the real
// sweep's.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ckt/engine.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/monte_carlo.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/scatter.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "common.hpp"
#include "core/thread_pool.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "wave/standard.hpp"

namespace perfbench {
namespace {

namespace ckt = ferro::ckt;
namespace core = ferro::core;
namespace mag = ferro::mag;
namespace wave = ferro::wave;

constexpr std::size_t kCheckedCorners = 3;
/// Allowed relative distance of a corner's inrush peak from the same corner
/// run with a 20x finer step bound. Loose on purpose: with the present
/// Newton companion model the peak moves non-monotonically with dt_max
/// (median 7.8 %, max 24 % over 48 corners at dt_max/20), so this guards
/// against gross errors only; see README.md.
constexpr double kPeakTolerance = 0.35;

struct Deck {
  std::string name;
  std::size_t corners = 0;
  std::size_t chunk = 0;  ///< lockstep group size
  std::string probe_device;  ///< branch-current probe (first branch)
  ckt::ScatterSpec spec;
  ckt::CornerBuilder builder;
  ckt::TransientOptions transient;
};

/// The inductor_inrush example's circuit: a 50 Hz source switched on at the
/// voltage zero crossing drives a JA-core inductor into saturation.
void build_inrush(const ckt::CornerView& view, ckt::Circuit& c) {
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<ckt::VoltageSource>("V", in, ckt::kGround,
                            std::make_shared<wave::Sine>(8.0, 50.0));
  c.add<ckt::Resistor>("R", in, out, view.value("r.value", 0.8));
  mag::CoreGeometry geom;
  geom.area = view.value("lcore.area", 1e-4);
  geom.path_length = view.value("lcore.path", 0.1);
  geom.turns = 100;
  mag::TimelessConfig config;
  config.dhmax = 5.0;
  mag::JaParameters params = mag::paper_parameters();
  params.ms = view.value("lcore.ms", params.ms);
  params.a = view.value("lcore.a", params.a);
  params.k = view.value("lcore.k", params.k);
  c.add<ckt::JaInductor>("Lcore", out, ckt::kGround, geom, params, config);
}

/// A grain-oriented-steel transformer under a resistive load.
void build_transformer(const ckt::CornerView& view, ckt::Circuit& c) {
  const auto p = c.node("p");
  const auto s = c.node("s");
  c.add<ckt::VoltageSource>("V", p, ckt::kGround,
                            std::make_shared<wave::Sine>(1.5, 50.0));
  mag::CoreGeometry geom;
  geom.area = view.value("t.area", 1e-4);
  mag::TimelessConfig config;
  config.dhmax = 0.5;
  mag::JaParameters params = mag::find_material("grain-oriented-si")->params;
  params.ms = view.value("t.ms", params.ms);
  params.k = view.value("t.k", params.k);
  c.add<ckt::JaTransformer>("T", p, ckt::kGround, s, ckt::kGround, geom, 50,
                            params, config);
  c.add<ckt::Resistor>("Rload", s, ckt::kGround, view.value("rload.value", 100.0));
}

std::vector<Deck> make_decks() {
  std::vector<Deck> decks(2);
  Deck& inrush = decks[0];
  inrush.name = "inrush";
  inrush.corners = 128;
  inrush.chunk = 8;
  inrush.probe_device = "Lcore";
  inrush.spec.params = {
      {"r.value", 0.05, ckt::ScatterKind::kUniform},
      {"lcore.area", 0.02, ckt::ScatterKind::kUniform},
      {"lcore.path", 0.02, ckt::ScatterKind::kUniform},
      {"lcore.ms", 0.10, ckt::ScatterKind::kNormal},
      {"lcore.a", 0.05, ckt::ScatterKind::kNormal},
      {"lcore.k", 0.05, ckt::ScatterKind::kNormal},
  };
  inrush.builder = build_inrush;
  inrush.transient.t_end = 0.02;
  inrush.transient.dt_initial = 1e-6;
  inrush.transient.dt_max = 2e-5;

  Deck& transformer = decks[1];
  transformer.name = "transformer";
  transformer.corners = 16;
  transformer.chunk = 2;
  transformer.probe_device = "T";
  transformer.spec.params = {
      {"rload.value", 0.05, ckt::ScatterKind::kUniform},
      {"t.area", 0.02, ckt::ScatterKind::kUniform},
      {"t.ms", 0.10, ckt::ScatterKind::kNormal},
      {"t.k", 0.05, ckt::ScatterKind::kNormal},
  };
  transformer.builder = build_transformer;
  transformer.transient.t_end = 0.02;
  transformer.transient.dt_initial = 1e-6;
  transformer.transient.dt_max = 2e-5;
  return decks;
}

std::uint64_t deck_seed(std::uint64_t seed, std::size_t deck) {
  return ferro::util::SplitMix64::mix(seed * 2 + deck);
}

ckt::MonteCarloOptions mc_options(const Deck& deck, unsigned threads,
                                  std::size_t corners) {
  ckt::MonteCarloOptions options;
  options.corners = corners;
  options.threads = threads;
  options.chunk = deck.chunk;
  options.packing = ckt::McPacking::kPackedExact;
  options.transient = deck.transient;
  options.probes = {{ckt::Probe::Kind::kBranchCurrent, deck.probe_device}};
  return options;
}

/// MonteCarlo's per-corner probe reduction (ckt/monte_carlo.cpp), for the
/// replay and the direct reference runs.
struct ProbeReducer {
  std::size_t branch = 0;
  ckt::ProbeSummary summary;
  bool has_sample = false;

  void operator()(const ckt::Solution& sol) {
    const double v = sol.branch_current(branch);
    ckt::ProbeSummary& s = summary;
    if (!has_sample) {
      s.min = s.max = s.final = v;
      s.abs_peak = std::fabs(v);
      s.t_abs_peak = sol.t;
      has_sample = true;
      return;
    }
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    if (std::fabs(v) > s.abs_peak) {
      s.abs_peak = std::fabs(v);
      s.t_abs_peak = sol.t;
    }
    s.final = v;
  }
};

std::size_t probe_branch(const ckt::Circuit& c, const std::string& device) {
  std::size_t branch = 0;
  for (const auto& d : c.devices()) {
    if (d->name() == device) return branch;
    branch += d->branch_count();
  }
  throw std::runtime_error("probe device " + device + " missing");
}

std::uint64_t corner_digest(std::size_t index, const ckt::CircuitStats& st,
                            const ckt::ProbeSummary& p, core::ErrorCode code) {
  Digest d;
  d.add(static_cast<std::uint64_t>(index));
  d.add(static_cast<std::uint64_t>(code));
  d.add(st.steps_accepted);
  d.add(st.steps_rejected);
  d.add(st.newton_iterations);
  d.add(st.hard_failures);
  for (const double v : {p.min, p.max, p.abs_peak, p.t_abs_peak, p.final}) d.add(v);
  return ferro::util::SplitMix64::mix(d.value());
}

std::uint64_t corner_digest(const ckt::CornerResult& r) {
  return corner_digest(r.index, r.stats,
                       r.probes.empty() ? ckt::ProbeSummary{} : r.probes[0],
                       r.error.code);
}

/// One direct run_transient of corner `index` — the reference the sweep
/// must equal bit for bit.
struct DirectRun {
  ckt::CircuitStats stats;
  ckt::ProbeSummary probe;
  core::Error error;
};

DirectRun direct_run(const Deck& deck, const ckt::CornerSampler& sampler,
                     std::size_t index, const ckt::TransientOptions& transient) {
  const ckt::CornerValues draws = sampler.corner(index);
  ckt::Circuit circuit;
  deck.builder(ckt::CornerView(sampler.spec(), draws, index), circuit);
  ProbeReducer reducer;
  reducer.branch = probe_branch(circuit, deck.probe_device);
  DirectRun run;
  run.error = ckt::run_transient(
      circuit, transient, [&](const ckt::Solution& sol) { reducer(sol); },
      &run.stats);
  run.probe = reducer.summary;
  return run;
}

struct DeckTotals {
  std::uint64_t accepted = 0, rejected = 0, iterations = 0, hard = 0;
  std::uint64_t digest = 0, failed = 0;
  void add(const ckt::CornerResult& r) {
    accepted += r.stats.steps_accepted;
    rejected += r.stats.steps_rejected;
    iterations += r.stats.newton_iterations;
    hard += r.stats.hard_failures;
    digest += corner_digest(r);
    failed += r.ok() ? 0 : 1;
  }
};

// ------------------------------------------------------------- replay ----

/// Layer time of one deck's replay. Stamps issued while a machine is being
/// constructed (the DC solve) are part of ckt.dc, not of the stamp layers.
/// core_eval is the packed trial evaluation, which runs outside advance().
struct CktLayers {
  Accum build, dc, advance, stamp_core, stamp_linear, commit, core_eval;
};

thread_local bool tl_in_dc = false;

/// Timing wrapper around one device. assign_branches is not virtual, so
/// the wrapper hands its own branch offset to the wrapped device before
/// every call that reads it.
class TimingDevice final : public ckt::Device {
 public:
  TimingDevice(std::unique_ptr<ckt::Device> inner, CktLayers& layers)
      : Device(inner->name()),
        inner_(std::move(inner)),
        core_(inner_->nonlinear()),
        layers_(layers) {}

  [[nodiscard]] std::size_t branch_count() const override {
    return inner_->branch_count();
  }
  void stamp(ckt::Stamper& s, const ckt::EvalContext& ctx) override {
    inner_->assign_branches(first_branch());
    const auto t0 = Clock::now();
    inner_->stamp(s, ctx);
    if (!tl_in_dc) {
      (core_ ? layers_.stamp_core : layers_.stamp_linear).add(Clock::now() - t0);
    }
  }
  void commit(const ckt::EvalContext& ctx, std::span<const double> x) override {
    inner_->assign_branches(first_branch());
    const auto t0 = Clock::now();
    inner_->commit(ctx, x);
    if (!tl_in_dc) layers_.commit.add(Clock::now() - t0);
  }
  [[nodiscard]] bool nonlinear() const override { return inner_->nonlinear(); }
  [[nodiscard]] ckt::Device& inner() { return *inner_; }

 private:
  std::unique_ptr<ckt::Device> inner_;
  bool core_;
  CktLayers& layers_;
};

struct ReplayCorner {
  std::size_t index = 0;
  ckt::Circuit circuit;
  ProbeReducer probe;
  ckt::CircuitStats stats;
  std::unique_ptr<ckt::TransientMachine> machine;
  std::vector<ckt::JaInductor*> packed_cores;
  std::vector<std::size_t> lane_of_core;
};

/// MonteCarlo's packed run_group (ckt/monte_carlo.cpp) over corners
/// [begin, end), instrumented. Returns the digest sum of the group.
std::uint64_t replay_group(const Deck& deck, const ckt::CornerSampler& sampler,
                           std::size_t begin, std::size_t end,
                           CktLayers& layers, Tracer* tracer) {
  PB_SPAN(tracer, "ckt.group");
  std::vector<std::unique_ptr<ReplayCorner>> group;
  for (std::size_t i = begin; i < end; ++i) {
    auto st = std::make_unique<ReplayCorner>();
    st->index = i;
    {
      const auto t0 = Clock::now();
      const ckt::CornerValues draws = sampler.corner(i);
      deck.builder(ckt::CornerView(sampler.spec(), draws, i), st->circuit);
      layers.build.add(Clock::now() - t0);
    }
    st->probe.branch = probe_branch(st->circuit, deck.probe_device);
    for (auto& device : st->circuit.devices()) {
      auto wrapper = std::make_unique<TimingDevice>(std::move(device), layers);
      auto* core = dynamic_cast<ckt::JaInductor*>(&wrapper->inner());
      if (core != nullptr &&
          mag::TimelessJaBatch::supports(core->model().config())) {
        st->packed_cores.push_back(core);
      }
      device = std::move(wrapper);
    }
    ReplayCorner* raw = st.get();
    const auto t0 = Clock::now();
    tl_in_dc = true;
    st->machine = std::make_unique<ckt::TransientMachine>(
        st->circuit, deck.transient,
        [raw](const ckt::Solution& sol) { raw->probe(sol); }, &st->stats);
    tl_in_dc = false;
    layers.dc.add(Clock::now() - t0);
    group.push_back(std::move(st));
  }

  mag::TimelessJaBatch batch(mag::BatchMath::kExact);
  for (auto& st : group) {
    for (ckt::JaInductor* core : st->packed_cores) {
      st->lane_of_core.push_back(
          batch.add_lane(core->model().params(), core->model().config()));
    }
  }
  const std::size_t lanes = batch.lanes();
  std::vector<double> h_at(lanes), h_plus(lanes), h_minus(lanes), di(lanes);
  std::vector<double> b_at(lanes), b_plus(lanes), b_minus(lanes);
  const auto trial_pass = [&](const std::vector<double>& h, std::vector<double>& b) {
    for (const auto& st : group) {
      for (std::size_t j = 0; j < st->packed_cores.size(); ++j) {
        batch.set_state(st->lane_of_core[j], st->packed_cores[j]->model().state());
      }
    }
    batch.apply(h.data());
    for (std::size_t l = 0; l < lanes; ++l) b[l] = batch.flux_density(l);
  };
  const auto any_active = [&] {
    return std::any_of(group.begin(), group.end(),
                       [](const auto& st) { return !st->machine->done(); });
  };

  while (any_active()) {
    if (lanes != 0) {
      const auto t0 = Clock::now();
      for (const auto& st : group) {
        const bool active = !st->machine->done();
        const auto x = st->machine->iterate();
        const std::size_t nodes = st->machine->node_count();
        for (std::size_t j = 0; j < st->packed_cores.size(); ++j) {
          const ckt::JaInductor* core = st->packed_cores[j];
          const std::size_t l = st->lane_of_core[j];
          if (!active) {
            h_at[l] = h_plus[l] = h_minus[l] = core->model().state().present_h;
            di[l] = 1.0;
            continue;
          }
          const double i_k = x[nodes + core->first_branch()];
          const mag::CoreGeometry& geom = core->geometry();
          di[l] = core->trial_di(i_k);
          h_at[l] = geom.field_from_current(i_k);
          h_plus[l] = geom.field_from_current(i_k + di[l]);
          h_minus[l] = geom.field_from_current(i_k - di[l]);
        }
      }
      trial_pass(h_at, b_at);
      trial_pass(h_plus, b_plus);
      trial_pass(h_minus, b_minus);
      layers.core_eval.add(Clock::now() - t0);
    }
    for (const auto& st : group) {
      if (st->machine->done()) continue;
      for (std::size_t j = 0; j < st->packed_cores.size(); ++j) {
        const std::size_t l = st->lane_of_core[j];
        st->packed_cores[j]->arm_trial(b_at[l], b_plus[l], b_minus[l], di[l]);
      }
      const auto t0 = Clock::now();
      st->machine->advance();
      layers.advance.add(Clock::now() - t0);
    }
  }

  std::uint64_t digest = 0;
  for (const auto& st : group) {
    digest += corner_digest(st->index, st->stats, st->probe.summary,
                            st->machine->error().code);
  }
  return digest;
}

/// 1 - mean/max of per-corner Newton iterations within each lockstep
/// chunk, averaged over the chunks: the share of lockstep rounds a chunk's
/// corners spend waiting for its slowest corner.
double lockstep_waste(const std::vector<ckt::CornerResult>& results,
                      std::size_t chunk) {
  double sum = 0.0;
  std::size_t chunks = 0;
  for (std::size_t b = 0; b < results.size(); b += chunk) {
    const std::size_t e = std::min(results.size(), b + chunk);
    double total = 0.0, most = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      const double it = double(results[i].stats.newton_iterations);
      total += it;
      most = std::max(most, it);
    }
    if (most > 0.0) sum += 1.0 - total / double(e - b) / most;
    ++chunks;
  }
  return chunks ? sum / double(chunks) : 0.0;
}

struct DeckSetup {
  Deck deck;
  std::unique_ptr<ckt::MonteCarlo> mc;
  ckt::MonteCarloOptions options;
};

std::vector<DeckSetup> make_setup(const Args& args) {
  std::vector<DeckSetup> setups;
  std::size_t d = 0;
  for (Deck& deck : make_decks()) {
    DeckSetup s;
    s.mc = std::make_unique<ckt::MonteCarlo>(
        ckt::CornerSampler(deck.spec, deck_seed(args.seed, d++)), deck.builder);
    s.options = mc_options(deck, args.threads, deck.corners);
    s.deck = std::move(deck);
    // First pool spin-up: one small sweep per deck.
    ckt::MonteCarloOptions warm = s.options;
    warm.corners = args.threads;
    (void)s.mc->run(warm);
    setups.push_back(std::move(s));
  }
  return setups;
}

void run_untraced(const Args& args, Report& report) {
  std::vector<double> setup_walls;
  std::vector<DeckSetup> decks;
  for (int k = 0; k < kSetupRepeats; ++k) {
    decks.clear();
    const double t0 = now_s();
    decks = make_setup(args);
    setup_walls.push_back(now_s() - t0);
  }

  // Sampled corners and their fine-step references (setup, not timed).
  std::vector<std::vector<std::size_t>> checked(decks.size());
  std::vector<double> reference_peaks;
  {
    Rng rng(args.seed ^ 0xc0ffeeull);
    for (std::size_t d = 0; d < decks.size(); ++d) {
      while (checked[d].size() < kCheckedCorners) {
        const std::size_t i = rng.below(decks[d].deck.corners);
        if (std::find(checked[d].begin(), checked[d].end(), i) == checked[d].end()) {
          checked[d].push_back(i);
        }
      }
    }
    ckt::TransientOptions fine = decks[0].deck.transient;
    fine.dt_max /= 20.0;
    fine.dt_initial = std::min(fine.dt_initial, fine.dt_max);
    for (const std::size_t i : checked[0]) {
      reference_peaks.push_back(
          direct_run(decks[0].deck, decks[0].mc->sampler(), i, fine).probe.abs_peak);
    }
  }

  std::vector<std::vector<DeckTotals>> totals(decks.size());
  std::vector<std::vector<ckt::CornerResult>> last(decks.size());
  std::vector<double> deck_walls(decks.size(), 0.0);
  std::size_t per_pass = 0;
  for (const auto& d : decks) per_pass += d.deck.corners;
  double cpu_s = 0.0;
  const std::vector<double> walls =
      measure_passes(args.seconds, 3, cpu_s, [&] {
        for (std::size_t d = 0; d < decks.size(); ++d) {
          const double t0 = now_s();
          last[d] = decks[d].mc->run(decks[d].options);
          deck_walls[d] += now_s() - t0;
          DeckTotals t;
          for (const auto& r : last[d]) t.add(r);
          totals[d].push_back(t);
        }
      });
  const double rss = peak_rss_mib();

  const std::size_t items = walls.size() * per_pass;
  report.attempted += items;
  for (std::size_t d = 0; d < decks.size(); ++d) {
    const std::string& name = decks[d].deck.name;
    for (const DeckTotals& t : totals[d]) {
      report.failed += t.failed;
      if (t.failed != 0) report.correct = false;
      if (t.digest != totals[d].front().digest) {
        report.fail("mc_circuits: " + name + " digest differs between passes");
      }
    }
    report.count("ckt.newton_iterations." + name, totals[d].front().iterations);
    report.count("ckt.steps_rejected." + name, totals[d].front().rejected);
    report.count("mc_circuits.digest." + name, totals[d].front().digest);
    report.info.emplace_back("mc_circuits.wall_share." + name,
                             std::to_string(deck_walls[d] /
                                            (deck_walls[0] + deck_walls[1])));
  }
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(double(per_pass) / w);
  report.metric("items_per_s", median(rates), "1/s");
  report.info.emplace_back("mc_circuits.pass_items_per_s", quantile_summary(rates));
  report.metric("setup_s", median(setup_walls), "s");
  report.metric("peak_rss_mib", rss, "MiB");
  report.metric("cpu_ms_per_item", 1e3 * cpu_s / double(items), "ms");
  report.info.emplace_back("mc_circuits.passes", std::to_string(walls.size()));

  // Output checks: sampled corners bitwise equal to a direct run_transient,
  // inrush peaks within kPeakTolerance of the fine-step reference.
  for (std::size_t d = 0; d < decks.size(); ++d) {
    for (std::size_t k = 0; k < checked[d].size(); ++k) {
      const std::size_t i = checked[d][k];
      const DirectRun ref =
          direct_run(decks[d].deck, decks[d].mc->sampler(), i, decks[d].deck.transient);
      report.attempted += 1;
      if (corner_digest(i, ref.stats, ref.probe, ref.error.code) !=
          corner_digest(last[d][i])) {
        report.fail("mc_circuits: " + decks[d].deck.name + " corner " +
                    std::to_string(i) + " differs from run_transient");
      }
      if (d == 0) {
        const double dev =
            std::fabs(last[d][i].probes[0].abs_peak - reference_peaks[k]) /
            reference_peaks[k];
        if (!(dev <= kPeakTolerance)) {
          report.fail("mc_circuits: inrush corner " + std::to_string(i) +
                      " peak deviates " + std::to_string(dev) +
                      " from the fine-step reference");
        }
      }
    }
  }
}

void run_traced(const Args& args, Report& report) {
  std::vector<DeckSetup> decks = make_setup(args);
  Tracer tracer;
  double real_total = 0.0, replay_total = 0.0;
  for (std::size_t d = 0; d < decks.size(); ++d) {
    const DeckSetup& ds = decks[d];
    const std::string suffix = "." + ds.deck.name;
    const std::size_t n = ds.deck.corners;

    const double t0 = now_s();
    const std::vector<ckt::CornerResult> real = ds.mc->run(ds.options);
    real_total += now_s() - t0;
    DeckTotals totals;
    for (const auto& r : real) totals.add(r);

    CktLayers layers;
    const std::size_t chunk = ds.deck.chunk;
    std::vector<std::uint64_t> group_digest((n + chunk - 1) / chunk, 0);
    double replay_wall = 0.0;
    {
      core::ThreadPool pool(args.threads);
      tracer.set_run(static_cast<std::uint32_t>(d));
      const double t1 = now_s();
      PB_SPAN(&tracer, "ckt.sweep");
      pool.parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
        group_digest[begin / chunk] =
            replay_group(ds.deck, ds.mc->sampler(), begin, end, layers, &tracer);
      });
      replay_wall = now_s() - t1;
    }
    replay_total += replay_wall;
    std::uint64_t replay_digest = 0;
    for (const std::uint64_t g : group_digest) replay_digest += g;
    report.attempted += 2 * n;
    report.failed += totals.failed;
    if (totals.failed != 0) report.correct = false;
    if (replay_digest != totals.digest) {
      report.fail("mc_circuits: " + ds.deck.name +
                  " replay digest differs from MonteCarlo::run");
    }

    // The acceptance reference: every corner as a direct run_transient.
    std::vector<DirectRun> direct(n);
    {
      core::ThreadPool pool(args.threads);
      pool.parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          direct[i] = direct_run(ds.deck, ds.mc->sampler(), i, ds.deck.transient);
        }
      });
    }
    std::uint64_t direct_iters = 0, direct_steps = 0, direct_digest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      direct_iters += direct[i].stats.newton_iterations;
      direct_steps += direct[i].stats.steps_accepted;
      direct_digest += corner_digest(i, direct[i].stats, direct[i].probe,
                                     direct[i].error.code);
    }
    const double iters_per_step = double(totals.iterations) / double(totals.accepted);
    if (direct_iters != totals.iterations || direct_steps != totals.accepted ||
        direct_digest != totals.digest) {
      report.fail("mc_circuits: " + ds.deck.name +
                  " corners differ from a direct run_transient");
    }

    const double inside_advance = layers.stamp_core.seconds() +
                                  layers.stamp_linear.seconds() +
                                  layers.commit.seconds();
    report.metric("ckt.build.busy_s" + suffix, layers.build.seconds(), "s");
    report.metric("ckt.dc.busy_s" + suffix, layers.dc.seconds(), "s");
    report.metric("ckt.advance.self_s" + suffix,
                  layers.advance.seconds() - inside_advance, "s");
    report.metric("ckt.stamp.core_s" + suffix,
                  layers.stamp_core.seconds() + layers.core_eval.seconds(), "s");
    report.metric("ckt.stamp.linear_s" + suffix, layers.stamp_linear.seconds(), "s");
    report.metric("ckt.commit_s" + suffix, layers.commit.seconds(), "s");
    report.metric("ckt.newton_iters_per_step" + suffix, iters_per_step, "count");
    report.metric("ckt.reject_ratio" + suffix,
                  double(totals.rejected) / double(totals.accepted + totals.rejected),
                  "ratio");
    report.metric("ckt.hard_failures" + suffix, double(totals.hard), "count");
    report.metric("ckt.lockstep_waste" + suffix, lockstep_waste(real, ds.deck.chunk), "ratio");
    report.count("ckt.newton_iterations." + ds.deck.name, totals.iterations);
    report.count("ckt.steps_rejected." + ds.deck.name, totals.rejected);
    report.count("mc_circuits.digest." + ds.deck.name, totals.digest);
  }
  report.metric("trace.mc_circuits.overhead_s", replay_total - real_total, "s");
  tracer.write_jsonl(args.out_dir + "/trace.jsonl");
}

}  // namespace

void run_mc_circuits(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
