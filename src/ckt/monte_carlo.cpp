#include "ckt/monte_carlo.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <exception>
#include <memory>
#include <utility>

#include "ckt/ja_inductor.hpp"
#include "ckt/lane_lu.hpp"
#include "core/thread_pool.hpp"

namespace ferro::ckt {
namespace {

using core::Error;
using core::ErrorCode;

using EmitFn = std::function<void(std::size_t, CornerResult&&)>;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// A probe resolved against one corner's circuit. The JaInductor pointer is
/// only dereferenced while the corner is alive (same group iteration).
struct ProbeRef {
  Probe::Kind kind = Probe::Kind::kNodeVoltage;
  NodeId node = kGround;
  std::size_t branch = 0;
  const JaInductor* core = nullptr;
};

Device* find_device(Circuit& circuit, std::string_view name) {
  for (const auto& device : circuit.devices()) {
    if (iequals(device->name(), name)) return device.get();
  }
  return nullptr;
}

/// Resolves one probe WITHOUT mutating the circuit: node lookup scans the
/// existing names (Circuit::node() would create the node and change the MNA
/// layout, breaking bitwise identity with a probe-less run).
Error resolve_probe(const Probe& probe, Circuit& circuit, ProbeRef& out) {
  out.kind = probe.kind;
  switch (probe.kind) {
    case Probe::Kind::kNodeVoltage: {
      if (iequals(probe.target, "0") || iequals(probe.target, "gnd")) {
        out.node = kGround;
        return {};
      }
      for (std::size_t id = 0; id < circuit.node_count(); ++id) {
        if (iequals(circuit.node_name(static_cast<NodeId>(id)), probe.target)) {
          out.node = static_cast<NodeId>(id);
          return {};
        }
      }
      return {ErrorCode::kInvalidScenario,
              "probe v(" + probe.target + "): no such node"};
    }
    case Probe::Kind::kBranchCurrent: {
      // Resolution runs before the engine lays out unknowns, so
      // first_branch() is not assigned yet; recompute the offset the same
      // way the layout will (device order, branch_count prefix sum).
      std::size_t branch = 0;
      for (const auto& device : circuit.devices()) {
        if (iequals(device->name(), probe.target)) {
          if (device->branch_count() == 0) {
            return {ErrorCode::kInvalidScenario,
                    "probe i(" + probe.target +
                        "): device has no branch current"};
          }
          out.branch = branch;
          return {};
        }
        branch += device->branch_count();
      }
      return {ErrorCode::kInvalidScenario,
              "probe i(" + probe.target + "): no such device"};
    }
    case Probe::Kind::kCoreFluxDensity:
    case Probe::Kind::kCoreField: {
      Device* device = find_device(circuit, probe.target);
      auto* core = dynamic_cast<JaInductor*>(device);
      if (core == nullptr) {
        return {ErrorCode::kInvalidScenario,
                "probe " +
                    std::string(probe.kind == Probe::Kind::kCoreFluxDensity
                                    ? "b("
                                    : "h(") +
                    probe.target + "): no such JA inductor"};
      }
      out.core = core;
      return {};
    }
  }
  return {ErrorCode::kInternal, "unhandled probe kind"};
}

double probe_value(const ProbeRef& ref, const Solution& sol) {
  switch (ref.kind) {
    case Probe::Kind::kNodeVoltage:
      return sol.v(ref.node);
    case Probe::Kind::kBranchCurrent:
      return sol.branch_current(ref.branch);
    case Probe::Kind::kCoreFluxDensity:
      return ref.core->flux_density();  // committed before the callback
    case Probe::Kind::kCoreField:
      return ref.core->field();
  }
  return 0.0;
}

/// One corner mid-flight inside a lockstep group. Heap-allocated so the
/// machine's accept callback can capture a stable pointer.
struct CornerState {
  Circuit circuit;
  std::vector<ProbeRef> probes;
  CornerResult result;
  bool has_sample = false;
  std::unique_ptr<TransientMachine> machine;
};

void record_sample(CornerState& st, bool record_waveforms,
                   const Solution& sol) {
  if (record_waveforms) st.result.t.push_back(sol.t);
  for (std::size_t p = 0; p < st.probes.size(); ++p) {
    const double v = probe_value(st.probes[p], sol);
    if (record_waveforms) st.result.waveforms[p].push_back(v);
    ProbeSummary& s = st.result.probes[p];
    if (!st.has_sample) {
      s.min = s.max = s.final = v;
      s.abs_peak = std::fabs(v);
      s.t_abs_peak = sol.t;
      continue;
    }
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    if (std::fabs(v) > s.abs_peak) {
      s.abs_peak = std::fabs(v);
      s.t_abs_peak = sol.t;
    }
    s.final = v;
  }
  st.has_sample = true;
}

/// Read-only sweep configuration plus the shared stop/emit plumbing one
/// parallel_for chunk needs.
struct SweepContext {
  const CornerSampler& sampler;
  const CornerBuilder& builder;
  const MonteCarloOptions& options;
  core::RunGate& gate;
  const EmitFn& emit;
};

/// Draws + builds + probe-resolves corner `index`. On failure the result
/// carries the error and `machine` stays null.
std::unique_ptr<CornerState> make_corner(const SweepContext& ctx,
                                         std::size_t index) {
  auto st = std::make_unique<CornerState>();
  st->result.index = index;
  st->result.draws = ctx.sampler.corner(index);
  st->result.probes.resize(ctx.options.probes.size());
  if (ctx.options.record_waveforms) {
    st->result.waveforms.resize(ctx.options.probes.size());
  }

  const CornerView view(ctx.sampler.spec(), st->result.draws, index);
  try {
    ctx.builder(view, st->circuit);
  } catch (const std::exception& e) {
    st->result.error = {ErrorCode::kInvalidScenario,
                        std::string("corner builder threw: ") + e.what()};
    return st;
  } catch (...) {
    st->result.error = {ErrorCode::kInvalidScenario, "corner builder threw"};
    return st;
  }

  st->probes.resize(ctx.options.probes.size());
  for (std::size_t p = 0; p < ctx.options.probes.size(); ++p) {
    Error err = resolve_probe(ctx.options.probes[p], st->circuit, st->probes[p]);
    if (!err.ok()) {
      st->result.error = std::move(err);
      return st;
    }
  }

  CornerState* raw = st.get();
  st->machine = std::make_unique<TransientMachine>(
      st->circuit, ctx.options.transient,
      [raw, rec = ctx.options.record_waveforms](const Solution& sol) {
        record_sample(*raw, rec, sol);
      },
      &st->result.stats, &ctx.gate);
  return st;
}

/// Books the corner's verdict into the gate counters and hands the result
/// off. The machine's latched error (if any) wins over a clean corner-layer
/// state; corner-layer failures never built a machine.
void finalize_emit(const SweepContext& ctx, std::unique_ptr<CornerState> st) {
  if (st->machine) st->result.error = st->machine->error();
  ctx.gate.count_verdict(st->result.error);
  ctx.emit(st->result.index, std::move(st->result));
}

/// Emits kCancelled/kDeadlineExceeded markers for a range the sweep no
/// longer computes (chunk claimed after the gate stopped). Draws are still
/// included — they are a pure function of (seed, index) and let a caller
/// resume or reproduce the skipped corners.
void emit_cancelled(const SweepContext& ctx, std::size_t begin,
                    std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    CornerResult r;
    r.index = i;
    r.draws = ctx.sampler.corner(i);
    r.error = ctx.gate.stop_error();
    ctx.gate.count_cancelled();
    ctx.emit(i, std::move(r));
  }
}

/// Solves the stamped Newton systems of a lockstep group's live machines and
/// concludes each one's iteration. Consecutive machines form blocks of up
/// to LaneLu::max_lanes(); those of a block that share its first machine's
/// unknown count are factored and solved together, lane-wise. A lone one,
/// and one whose unknown count differs from its block's, runs its own
/// ams::LuSolver (TransientMachine::solve). Either way each solution is
/// bitwise what advance() computes.
void solve_and_conclude(const std::vector<TransientMachine*>& live,
                        LaneLu& lu) {
  const std::size_t max_lanes = LaneLu::max_lanes();
  for (std::size_t begin = 0; begin < live.size(); begin += max_lanes) {
    const std::size_t end = std::min(live.size(), begin + max_lanes);
    const std::size_t n = live[begin]->system().rows();
    const auto in_lanes = [&](const TransientMachine* m) {
      return m->system().rows() == n;
    };
    const auto lanes = static_cast<std::size_t>(
        std::count_if(live.begin() + begin, live.begin() + end, in_lanes));
    if (lanes > 1) {
      lu.reset(n, lanes);
      std::size_t lane = 0;
      for (std::size_t k = begin; k < end; ++k) {
        if (!in_lanes(live[k])) continue;
        lu.load(lane++, live[k]->system(), live[k]->rhs());
      }
      lu.solve();
    }
    std::size_t lane = 0;
    for (std::size_t k = begin; k < end; ++k) {
      TransientMachine& m = *live[k];
      if (lanes > 1 && in_lanes(&m)) {
        const bool solved = !lu.singular(lane);
        if (solved) lu.store(lane, m.solution());
        ++lane;
        m.conclude(solved);
      } else {
        m.conclude(m.solve());
      }
    }
  }
}

/// Runs corners [begin, end) as one lockstep group. kScalar: each corner's
/// machine is driven to completion on its own (the serial reference).
/// Packed: all machines of the group step together, one Newton iteration
/// each per round: every live corner stamps its system, and
/// solve_and_conclude() solves them lane-wise.
void run_group(const SweepContext& ctx, std::size_t begin, std::size_t end) {
  const bool packed = ctx.options.packing != McPacking::kScalar;

  std::vector<std::unique_ptr<CornerState>> group;
  group.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    auto st = make_corner(ctx, i);
    if (!st->machine) {  // builder/probe failure: emit, isolate, move on
      finalize_emit(ctx, std::move(st));
      continue;
    }
    if (!packed) {
      while (!st->machine->done()) st->machine->advance();
      finalize_emit(ctx, std::move(st));
      continue;
    }
    group.push_back(std::move(st));
  }

  std::vector<TransientMachine*> live;
  live.reserve(group.size());
  LaneLu lu;
  for (;;) {
    live.clear();
    for (const auto& st : group) {
      if (st->machine->done()) continue;
      st->machine->stamp();
      live.push_back(st->machine.get());
    }
    if (live.empty()) break;
    solve_and_conclude(live, lu);
  }

  for (auto& st : group) finalize_emit(ctx, std::move(st));
}

/// The sweep body shared by the collect and streaming overloads: validate
/// once, then fan the corner groups across the pool. Every index reaches
/// `emit` exactly once.
void dispatch_sweep(const CornerSampler& sampler, const CornerBuilder& builder,
                    const MonteCarloOptions& options, core::RunGate& gate,
                    const EmitFn& emit) {
  const std::size_t n = options.corners;
  if (n == 0) return;

  if (const Error invalid = validate(options.transient); !invalid.ok()) {
    for (std::size_t i = 0; i < n; ++i) {
      CornerResult r;
      r.index = i;
      r.error = invalid;
      gate.count_failure();
      emit(i, std::move(r));
    }
    return;
  }

  const SweepContext ctx{sampler, builder, options, gate, emit};
  const unsigned threads = core::resolve_workers(options.threads, n);
  const std::size_t chunk =
      options.chunk != 0 ? options.chunk
                         : core::ThreadPool::default_chunk(n, threads);

  core::ThreadPool pool(threads);
  pool.parallel_for(
      n, chunk,
      [&](std::size_t begin, std::size_t end, bool stopped) {
        // A one-worker pool hands over all of [0, n) in one call: walk it
        // in chunk-sized groups, polling the gate between them as the pool
        // polls it between chunks.
        for (std::size_t b = begin; b < end;) {
          const std::size_t e = b + std::min(chunk, end - b);
          if (stopped || gate.stopped()) {
            emit_cancelled(ctx, b, e);
          } else {
            run_group(ctx, b, e);
          }
          b = e;
        }
      },
      [&] { return gate.stopped(); });
}

}  // namespace

std::string_view to_string(McPacking packing) {
  switch (packing) {
    case McPacking::kScalar:
      return "scalar";
    case McPacking::kPackedExact:
      return "packed-exact";
  }
  return "?";
}

std::string_view to_string(Probe::Kind kind) {
  switch (kind) {
    case Probe::Kind::kNodeVoltage:
      return "v";
    case Probe::Kind::kBranchCurrent:
      return "i";
    case Probe::Kind::kCoreFluxDensity:
      return "b";
    case Probe::Kind::kCoreField:
      return "h";
  }
  return "?";
}

MonteCarlo::MonteCarlo(CornerSampler sampler, CornerBuilder builder)
    : sampler_(std::move(sampler)), builder_(std::move(builder)) {}

std::vector<CornerResult> MonteCarlo::run(const MonteCarloOptions& options,
                                          core::BatchReport* report) const {
  core::RunGate gate(options.limits);
  std::vector<CornerResult> results(options.corners);
  // Disjoint slot writes: no synchronisation needed, no queue overhead.
  dispatch_sweep(sampler_, builder_, options, gate,
                 [&](std::size_t i, CornerResult&& r) {
                   results[i] = std::move(r);
                 });
  if (report != nullptr) {
    gate.fill(*report);
    report->jobs = options.corners;
  }
  return results;
}

core::StreamSummary MonteCarlo::run(const MonteCarloOptions& options,
                                    CornerSink& sink) const {
  core::RunGate gate(options.limits);
  return core::stream_to_sink(
      sink, options.corners,
      core::resolve_workers(options.threads, options.corners),
      /*queue_capacity=*/0, gate, [&](const EmitFn& emit) {
        dispatch_sweep(sampler_, builder_, options, gate, emit);
      });
}

}  // namespace ferro::ckt
