#include "core/batch_runner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/fault_injection.hpp"
#include "core/frontend_plan.hpp"
#include "core/result_sink.hpp"
#include "mag/energy_based_batch.hpp"
#include "mag/ja_trace.hpp"
#include "wave/sweep.hpp"

namespace ferro::core {

/// The curve storage of delivered results the sink did not keep, for the
/// next lane blocks to record into: they then write into pages that are
/// already mapped, where fresh curves would be faulted in (zero-filled)
/// page by page after the allocator trimmed the last block's back to the
/// OS. Belongs to one streaming run; mutex-guarded, because the consumer
/// thread gives while the workers take. Keeps at most `cap` buffers — what
/// can be in flight — and lets the rest be freed.
class BatchRunner::CurveRecycler {
 public:
  /// Reserves the whole set up front, so give() never allocates (it runs
  /// on the delivering thread and must not throw).
  explicit CurveRecycler(std::size_t cap) : cap_(cap) { free_.reserve(cap); }

  /// A buffer as it was given back, stale points included, or a new one.
  /// Whoever records into it overwrites it in place (the kernels' storage
  /// contract, mag/timeless_ja_batch.hpp) or clears it before appending.
  std::vector<mag::BhPoint> take() {
    std::lock_guard<std::mutex> lk(mutex_);
    if (free_.empty()) return {};
    std::vector<mag::BhPoint> points = std::move(free_.back());
    free_.pop_back();
    return points;
  }

  /// Keeps `points` for a later take() unless the set is full (then the
  /// caller's buffer is freed as usual).
  void give(std::vector<mag::BhPoint>&& points) {
    if (cap_ == 0 || points.capacity() == 0) return;
    // Kept with its points: clearing here would only make the next
    // recording zero-fill what it then overwrites.
    std::lock_guard<std::mutex> lk(mutex_);
    if (free_.size() < cap_) free_.push_back(std::move(points));
  }

 private:
  const std::size_t cap_;
  std::mutex mutex_;
  std::vector<std::vector<mag::BhPoint>> free_;
};

BatchRunner::BatchRunner(BatchOptions options)
    : options_(options), pool_(resolve_workers(options.threads)) {}

std::size_t BatchRunner::lane_block() {
  return 2 * static_cast<std::size_t>(
                 mag::TimelessJaBatch::active_simd_width());
}

std::vector<ScenarioResult> BatchRunner::run(
    const std::vector<Scenario>& scenarios, const RunOptions& options,
    BatchReport* report) const {
  RunGate gate(options.limits);
  std::vector<ScenarioResult> results(scenarios.size());
  // Disjoint slot writes: no synchronisation needed, no queue overhead.
  const EmitFn emit = [&](std::size_t i, ScenarioResult&& r) {
    results[i] = std::move(r);
  };
  // The caller keeps every result, so no storage is recycled.
  CurveRecycler recycled(0);
  dispatch_packed(scenarios, options.packing, emit, gate, recycled);
  if (report) {
    report->jobs = scenarios.size();
    gate.fill(*report);
  }
  return results;
}

void BatchRunner::dispatch_packed(const std::vector<Scenario>& scenarios,
                                  Packing packing, const EmitFn& emit,
                                  RunGate& gate,
                                  CurveRecycler& recycled) const {
  if (scenarios.empty()) return;
  const mag::BatchMath math = packing == Packing::kFast
                                  ? mag::BatchMath::kFast
                                  : mag::BatchMath::kExact;

  // Stage 1 (plan): route every scenario and collect the deduplicated
  // JA-free trajectory solves of the kAms lanes (core/frontend_plan.hpp).
  // The solves themselves are work items fanned across the pool below, not
  // done here; time drives are sampled in their lane blocks.
  FrontendPlanSet plans(scenarios);

  /// Emits an error-only result for scenario i, counting it against the
  /// failure or cancellation tally by its code.
  const auto emit_error = [&](std::size_t i, Error e) {
    gate.count_verdict(e);
    ScenarioResult r;
    r.name = scenarios[i].name;
    r.model = scenarios[i].kind();
    r.error = std::move(e);
    emit(i, std::move(r));
  };

  // Lanes group by model: the SoA executors are per-model kernels, so a
  // mixed batch splits into homogeneous lane lists (plus the shared
  // fallback list) and each list blocks independently.
  std::vector<std::size_t> fallback;
  std::vector<std::size_t> sweep_lanes;   // JA, threshold row program
  std::vector<std::size_t> energy_lanes;  // energy-based, play update
  std::vector<std::size_t> trace_lanes;   // JA, planner-trace rows (kAms)
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (gate.stopped()) {
      emit_error(i, gate.stop_error());
      continue;
    }
    // validate()'s checks run where each input is read: plan_route sent
    // whatever validate_setup rejects to the fallback, whose run_scenario
    // issues the verdict, and the lane blocks sample their time drives just
    // before their kernels read them and scan a sweep's samples only when
    // its kernel finish reports a non-finite point.
    switch (plans.plan(i).route) {
      case PlanRoute::kPackedSweep:
        (scenarios[i].kind() == mag::ModelKind::kEnergyBased ? energy_lanes
                                                             : sweep_lanes)
            .push_back(i);
        break;
      case PlanRoute::kPackedTrace: trace_lanes.push_back(i); break;
      case PlanRoute::kFallback: fallback.push_back(i); break;
    }
  }

  // Group kindred lanes into the same vector registers: same anhysteretic
  // kind keeps kernel spans long, and similar planned length keeps a
  // group's masked-out ragged tail short (a lone long lane would otherwise
  // drag its group through rows every other lane has finished). dhmax comes
  // last: a field event depends only on the drive and dhmax, so two lanes'
  // events coincide only when they share both, and lanes sharing a drive
  // share its length; length first still keeps them together, sorted by
  // dhmax, while lanes of different drives fire out of step whatever their
  // dhmax. Within a kind the longest lanes come first, so their blocks
  // start first (see the schedule below). Pure scheduling: lanes are
  // independent and grouping-invariant, so results (emitted under their
  // original scenario indices) are bitwise unchanged; stable sort keeps
  // ties in scenario order whatever the thread count.
  const auto lane_sort = [&](std::vector<std::size_t>& lanes,
                             const auto& rows_of) {
    std::stable_sort(lanes.begin(), lanes.end(),
                     [&](std::size_t x, std::size_t y) {
                       const JaSpec& a = scenarios[x].ja();
                       const JaSpec& b = scenarios[y].ja();
                       if (a.params.kind != b.params.kind) {
                         return a.params.kind < b.params.kind;
                       }
                       const std::size_t rx = rows_of(x);
                       const std::size_t ry = rows_of(y);
                       if (rx != ry) return rx > ry;
                       return a.config.dhmax < b.config.dhmax;
                     });
  };
  // A lane's planned length: its sweep's, or the samples its lane block
  // will take of its time drive.
  const auto samples_of = [&](std::size_t i) {
    const auto* time = std::get_if<TimeDrive>(&scenarios[i].drive);
    return time != nullptr ? time->n_samples : plans.sweep(i).size();
  };
  lane_sort(sweep_lanes, samples_of);

  // Energy lanes have no vector lockstep to protect — grouping only serves
  // cache locality, so similar cell counts (state slab sizes) and planned
  // lengths suffice; the most cells and the longest first, ties in
  // scenario order, like the JA sort.
  std::stable_sort(energy_lanes.begin(), energy_lanes.end(),
                   [&](std::size_t x, std::size_t y) {
                     const auto& a = scenarios[x].energy().params;
                     const auto& b = scenarios[y].energy().params;
                     if (a.cells != b.cells) return a.cells > b.cells;
                     return samples_of(x) > samples_of(y);
                   });

  const auto emit_block_error = [&](const std::vector<std::size_t>& lanes,
                                    std::size_t begin, std::size_t end,
                                    const Error& error) {
    for (std::size_t p = begin; p < end; ++p) {
      emit_error(lanes[p], error);
    }
  };

  /// A whole block that never ran because the gate stopped first: every
  /// lane reports the stop verdict.
  const auto emit_block_cancelled = [&](const std::vector<std::size_t>& lanes,
                                        std::size_t begin, std::size_t end) {
    emit_block_error(lanes, begin, end, gate.stop_error());
  };

  /// A per-scenario job: run_scenario issues the result and its verdict.
  const auto run_fallback = [&](std::size_t i) {
    ScenarioResult r = run_scenario(scenarios[i]);
    if (!r.ok()) gate.count_failure();
    emit(i, std::move(r));
  };

  /// Finishes a lane from the CurveFinish its kernel (or, for trace lanes,
  /// the copy of its published rows) accumulated, through finish_result as
  /// run_scenario's walk does, plus the non-finite quarantine (shared by
  /// every block kind): a lane whose curve carries NaN/Inf is retried once
  /// through the scalar exact path (run_scenario — no recursion, no
  /// kernel), which either reproduces the garbage as a diagnosed kNonFinite
  /// error or, for FastMath-only blow-ups, recovers a clean exact result.
  /// Either way the lane's verdict matches what run_scenario reports for the
  /// same scenario.
  const auto finalize_lane = [&](std::size_t i, ScenarioResult&& r,
                                 analysis::CurveFinish& finish) {
    bool poison = false;
    try {
      poison = FERRO_FAULT_HIT(FaultSite::kLaneCompute);
    } catch (const std::exception& e) {
      // An injected throw models the lane assembly dying: this lane reports
      // kInternal, its neighbours are untouched, and nothing unwinds into
      // the pool worker.
      r.error = {ErrorCode::kInternal, e.what()};
    }
    if (poison && !r.curve.empty()) {
      // Injected poison: corrupt the lane output exactly like a kernel
      // blow-up would — the curve and the verdict accumulated with it —
      // driving the same quarantine machinery.
      std::vector<mag::BhPoint> pts = r.curve.release();
      pts[0].m = std::numeric_limits<double>::quiet_NaN();
      r.curve = mag::BhCurve(std::move(pts));
      finish.finite = false;
    }
    if (r.ok() && !finish_result(r, finish, scenarios[i].metrics_window)) {
      // One immediate scalar retry; run_scenario diagnoses a persistent
      // blow-up as kNonFinite itself.
      gate.count_quarantined();
      r = run_scenario(scenarios[i]);
    }
    if (!r.ok()) gate.count_failure();
    emit(i, std::move(r));
  };

  // One SoA lane block of a sweep kernel — mag::TimelessJaBatch for JA
  // lanes, mag::EnergyBasedBatch (whose shared play update makes its lanes
  // bitwise run_scenario's by construction) for energy lanes: contiguous
  // slice [begin, end) of a sorted lane list. A time drive is sampled onto
  // the uniform grid run_scenario uses just before the kernel reads it, and
  // a lane whose waveform throws there is finished by run_scenario, where
  // it throws the same way. The kernel advances the lanes together and
  // finishes each in its output pass, so a failure there (allocation,
  // fundamentally) is reported on every lane it held; the per-lane
  // finalize step keeps per-job capture like run_scenario does. A sweep's
  // samples are scanned only when its lane's finish reports a non-finite
  // point, which a non-finite sample always causes (b = mu0 (m + h)): a
  // lane validate_samples rejects is emitted with validate()'s verdict and
  // not quarantined, and lanes never interact, so its neighbours are as
  // they would be without it. (A time drive is not scanned, as validate()
  // does not scan it; a NaN waveform reaches the quarantine.) Each lane's
  // result is emitted as soon as it is finished, so streaming consumers
  // see lane results while other blocks are still computing.
  const auto run_sweep_block = [&](const std::vector<std::size_t>& lanes,
                                   std::size_t begin, std::size_t end,
                                   auto batch) {
    constexpr bool kEnergy =
        std::is_same_v<decltype(batch), mag::EnergyBasedBatch>;
    if (gate.stopped()) {
      emit_block_cancelled(lanes, begin, end);
      return;
    }
    std::vector<std::size_t> live;
    std::vector<wave::HSweep> sampled;  // reserved: pointers stay valid
    std::vector<const wave::HSweep*> sweeps;
    std::vector<mag::BhCurve> curves;
    std::vector<analysis::CurveFinish> finish;
    std::size_t next = begin;  // lanes below it are emitted or live
    const auto fail = [&](const Error& error) {
      emit_block_error(live, 0, live.size(), error);
      emit_block_error(lanes, next, end, error);
    };
    try {
      live.reserve(end - begin);
      sampled.reserve(end - begin);
      sweeps.reserve(end - begin);
      curves.reserve(end - begin);
      finish.reserve(end - begin);
      for (; next < end; ++next) {
        const std::size_t i = lanes[next];
        const Scenario& s = scenarios[i];
        if (const auto* time = std::get_if<TimeDrive>(&s.drive)) {
          bool threw = false;
          try {
            sampled.push_back(wave::sweep_from_waveform(
                *time->waveform, time->t0, time->t1, time->n_samples));
          } catch (...) {
            threw = true;
          }
          if (threw) {
            run_fallback(i);
            continue;
          }
          sweeps.push_back(&sampled.back());
        } else {
          sweeps.push_back(&plans.sweep(i));
        }
        if constexpr (kEnergy) {
          batch.add_lane(s.energy().params);
        } else {
          batch.add_lane(s.ja().params, s.ja().config);
        }
        curves.emplace_back(recycled.take());
        finish.push_back(start_finish(sweeps.back()->size(), s.metrics_window));
        live.push_back(i);  // reserved: cannot throw
      }
      if (!live.empty()) batch.run(sweeps, curves, finish);
    } catch (const std::exception& e) {
      fail({ErrorCode::kInternal, e.what()});
      return;
    } catch (...) {
      fail({ErrorCode::kInternal, "unknown exception"});
      return;
    }
    for (std::size_t l = 0; l < live.size(); ++l) {
      const std::size_t i = live[l];
      if (!finish[l].finite &&
          !std::holds_alternative<TimeDrive>(scenarios[i].drive)) {
        Error invalid = validate_samples(plans.sweep(i));
        if (!invalid.ok()) {
          emit_error(i, std::move(invalid));
          continue;
        }
      }
      ScenarioResult r;
      r.name = scenarios[i].name;
      r.model = scenarios[i].kind();
      try {
        r.curve = std::move(curves[l]);
        if constexpr (kEnergy) {
          r.energy_stats = batch.stats(l);
        } else {
          r.stats = batch.stats(l);
        }
      } catch (const std::exception& e) {
        r.error = {ErrorCode::kInternal, e.what()};
      } catch (...) {
        r.error = {ErrorCode::kInternal, "unknown exception"};
      }
      finalize_lane(i, std::move(r), finish[l]);
    }
  };

  // Stage 2 for kAms lanes: unroll each scenario's trace over its shared
  // trajectory (TimelessJa::apply expanded into rows — sub-steps included —
  // by mag::build_ja_trace), replay the rows through the kernel, and keep
  // the published rows plus the initial virgin-state point exactly like the
  // serial frontend. The planned counters join the kernel's clamp counters
  // to reproduce run_scenario's stats bit for bit.
  const auto run_trace_block = [&](const std::vector<std::size_t>& lanes,
                                   std::size_t begin, std::size_t end) {
    if (gate.stopped()) {
      emit_block_cancelled(lanes, begin, end);
      return;
    }
    std::vector<std::size_t> live;
    live.reserve(end - begin);
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t i = lanes[p];
      const TrajectoryJob& job = plans.trajectory(plans.plan(i).trajectory);
      if (!job.error.ok()) {
        emit_error(i, job.error);
      } else {
        live.push_back(i);
      }
    }
    if (live.empty()) return;

    mag::TimelessJaBatch batch(math);
    std::vector<mag::JaTrace> traces;
    std::vector<mag::TimelessJaBatch::TraceView> views;
    std::vector<std::vector<mag::BhPoint>> points;
    std::vector<mag::BhPoint> virgin;
    try {
      traces.reserve(live.size());
      views.reserve(live.size());
      virgin.reserve(live.size());
      points.reserve(live.size());
      for (const std::size_t i : live) {
        const JaSpec& s = scenarios[i].ja();
        // The trace already unrolled any sub-stepping, so the lane registers
        // with the kernel-subset config (the clamp flags still matter).
        mag::TimelessConfig lane_config = s.config;
        lane_config.substep_max = 0.0;
        const std::size_t lane = batch.add_lane(s.params, lane_config);
        const AmsTrajectory& trajectory =
            plans.trajectory(plans.plan(i).trajectory).result;
        traces.push_back(mag::build_ja_trace(
            trajectory.h, ams_effective_timeless(s.config)));
        views.push_back({traces.back().h.data(), traces.back().dh.data(),
                         traces.back().rows()});
        // The initial trajectory point publishes the virgin state before
        // any update (present_h still 0 in the flux term) — capture it
        // before the rows run.
        virgin.push_back(mag::BhPoint{0.0, batch.magnetisation(lane),
                                      batch.flux_density(lane)});
        // Sized here rather than inside run_traces: a buffer that has to
        // grow then lands between the row programs, so their storage, freed
        // with the block, is reused by the next block instead of coalescing
        // into one free run at the heap top that the allocator trims.
        // Cleared first, so the growth copies no stale points.
        std::vector<mag::BhPoint>& rows = points.emplace_back(recycled.take());
        if (rows.capacity() < views.back().rows) {
          rows.clear();
          rows.reserve(views.back().rows);
        }
      }
      batch.run_traces(views, points);
    } catch (const std::exception& e) {
      emit_block_error(live, 0, live.size(), {ErrorCode::kInternal, e.what()});
      return;
    } catch (...) {
      emit_block_error(live, 0, live.size(),
                       {ErrorCode::kInternal, "unknown exception"});
      return;
    }
    for (std::size_t l = 0; l < live.size(); ++l) {
      const std::size_t i = live[l];
      ScenarioResult r;
      r.name = scenarios[i].name;
      analysis::CurveFinish finish;
      try {
        const mag::JaTrace& trace = traces[l];
        const AmsTrajectory& trajectory =
            plans.trajectory(plans.plan(i).trajectory).result;
        // Assembled by appending, so the taken buffer's stale points go.
        r.curve = mag::BhCurve(recycled.take());
        r.curve.clear();
        r.curve.reserve(trajectory.h.size());
        if (!trajectory.h.empty()) {
          // The copy of the published rows is this lane's output pass: it
          // finishes the curve as it builds it.
          finish = start_finish(1 + trace.record_rows.size(),
                                scenarios[i].metrics_window);
          const auto publish = [&](const mag::BhPoint& p) {
            finish.add(r.curve.size(), p.h, p.m, p.b);
            r.curve.append(p);
          };
          publish({trajectory.h.front(), virgin[l].m, virgin[l].b});
          for (const std::uint32_t row : trace.record_rows) {
            publish(points[l][row]);
          }
        }
        r.stats = batch.stats(l);  // the executed clamp counters
        r.stats.samples = trace.planned.samples;
        r.stats.field_events = trace.planned.field_events;
        r.stats.integration_steps = trace.planned.integration_steps;
      } catch (const std::exception& e) {
        r.error = {ErrorCode::kInternal, e.what()};
      } catch (...) {
        r.error = {ErrorCode::kInternal, "unknown exception"};
      }
      // The replayed rows are scratch once the published ones are copied.
      recycled.give(std::move(points[l]));
      finalize_lane(i, std::move(r), finish);
    }
  };

  // The schedule (see the header). The trace blocks need their trajectory
  // solves done (and their sort key needs the solved lengths), so the
  // solves run as their own small parallel_for first — bounded, JA-free and
  // deduplicated, so the barrier is one cheap ODE solve wide — and every
  // other unit runs in one dispatch behind it, in the order of the unit
  // list below. Every unit emits or writes disjoint state, so no result
  // depends on the order.
  const ThreadPool::StopQuery stop = [&] { return gate.stopped(); };
  pool_.parallel_for(
      plans.trajectory_jobs(), 1,
      [&](std::size_t begin, std::size_t end, bool stopped) {
        for (std::size_t u = begin; u < end; ++u) {
          if (stopped || gate.stopped()) {
            // The scenarios referencing this job report the verdict when
            // their trace block runs.
            plans.skip_trajectory(u, gate.stop_error());
          } else {
            plans.solve_trajectory(u);
          }
        }
      },
      stop);

  // Planned lengths (the trajectories' accepted step counts) exist now.
  lane_sort(trace_lanes, [&](std::size_t i) {
    return plans.trajectory(plans.plan(i).trajectory).result.h.size();
  });

  // A unit is [begin, end) of one list: a fallback job, or a lane block of
  // one kernel tile at every thread count — a worker holds one tile of
  // curves at a time, so a streaming run's recycled storage stays small,
  // and no partition splits a vector group mid-register. Lanes are
  // independent, so any block partition yields identical per-lane results.
  struct Unit {
    const std::vector<std::size_t>* list;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Unit> units;
  for (std::size_t f = 0; f < fallback.size(); ++f) {
    units.push_back({&fallback, f, f + 1});
  }
  for (const auto* lanes : {&trace_lanes, &energy_lanes, &sweep_lanes}) {
    for (std::size_t b = 0; b < lanes->size(); b += lane_block()) {
      units.push_back({lanes, b, std::min(lanes->size(), b + lane_block())});
    }
  }
  pool_.parallel_for(
      units.size(), 1,
      [&](std::size_t begin, std::size_t end, bool stopped) {
        for (std::size_t u = begin; u < end; ++u) {
          const auto& [list, b0, b1] = units[u];
          if (list == &fallback) {
            const std::size_t i = fallback[b0];
            if (stopped || gate.stopped()) {
              emit_error(i, gate.stop_error());
            } else {
              run_fallback(i);
            }
          } else if (list == &trace_lanes) {
            run_trace_block(trace_lanes, b0, b1);
          } else if (list == &energy_lanes) {
            run_sweep_block(energy_lanes, b0, b1, mag::EnergyBasedBatch(math));
          } else {
            run_sweep_block(sweep_lanes, b0, b1, mag::TimelessJaBatch(math));
          }
        }
      },
      stop);
}

std::size_t BatchRunner::queue_capacity(const StreamOptions& stream,
                                        std::size_t n_jobs) const {
  if (stream.queue_capacity != 0) return stream.queue_capacity;
  return lane_block() + 2 * static_cast<std::size_t>(resolved_threads(n_jobs));
}

StreamSummary BatchRunner::run(const std::vector<Scenario>& scenarios,
                               ResultSink& sink,
                               const RunOptions& options) const {
  RunGate gate(options.limits);
  const unsigned workers = resolved_threads(scenarios.size());
  const std::size_t capacity = queue_capacity(options.stream, scenarios.size());
  // Keeps what the sink hands back for the lane blocks to record into — at
  // most what can be in flight: one block per worker, a full queue and the
  // batch the consumer drained.
  CurveRecycler recycled(workers * lane_block() + 2 * capacity);
  return stream_to_sink(
      sink, scenarios.size(), workers, capacity, gate,
      [&](const EmitFn& emit) {
        dispatch_packed(scenarios, options.packing, emit, gate, recycled);
      },
      [&](ScenarioResult& left) { recycled.give(left.curve.release()); });
}

}  // namespace ferro::core
