#include "core/systemc_ja.hpp"

#include <cmath>

#include "util/constants.hpp"

namespace ferro::core {

JaCoreModule::JaCoreModule(hdl::Kernel& kernel, std::string name,
                           const mag::JaParameters& params, double dhmax)
    : hdl::Module(kernel, std::move(name)),
      H(kernel, this->name() + ".H", 0.0),
      Msig(kernel, this->name() + ".Msig", 0.0),
      Bsig(kernel, this->name() + ".Bsig", 0.0),
      params_(params),
      anhysteretic_(params),
      dhmax_(dhmax),
      c_over_1pc_(params.c / (1.0 + params.c)),
      alpha_ms_(params.alpha * params.ms),
      one_pc_k_((1.0 + params.c) * params.k),
      one_pc_alpha_ms_((1.0 + params.c) * (params.alpha * params.ms)),
      hchanged_(kernel, this->name() + ".hchanged", false),
      trig_(kernel, this->name() + ".trig", 0),
      refresh_(kernel, this->name() + ".refresh", 0) {
  const hdl::ProcessId core_pid = method("core", [this] { core(); });
  sensitive(core_pid, H);
  sensitive(core_pid, refresh_);

  const hdl::ProcessId monitor_pid = method("monitorH", [this] { monitor_h(); });
  sensitive(monitor_pid, hchanged_);

  const hdl::ProcessId integral_pid = method("Integral", [this] { integral(); });
  sensitive(integral_pid, trig_);
}

void JaCoreModule::core() {
  const double h = H.read();

  // hchanged signal triggered by sufficient changes in field strength.
  if (std::fabs(h - lasth_) > dhmax_) {
    hchanged_.write(true);
  }

  const double he = h + alpha_ms_ * mtotal_;      // effective field
  man_ = anhysteretic_.man(he);                   // anhysteretic magnetisation
  const double mrev = c_over_1pc_ * man_;         // reversible component
  mtotal_ = mrev + mirr_;                         // total magnetisation
  const double b = util::kMu0 * (params_.ms * mtotal_ + h);  // flux density

  Msig.write(mtotal_);
  Bsig.write(b);
}

void JaCoreModule::monitor_h() {
  const double dh = H.read() - lasth_;
  if (std::fabs(dh) > dhmax_) {
    deltah_ = dh;
    lasth_ = H.read();
    trig_.write(++trig_count_);
    hchanged_.write(false);
  }
}

bool JaCoreModule::clamps_match(const mag::TimelessConfig& config) {
  // Mirrors the two unconditional guards in integral() below.
  return config.clamp_negative_slope && config.clamp_direction;
}

void JaCoreModule::integral() {
  ++stats_.field_events;

  // Get the field direction. delta*one_pc_k with delta = +-1 is exact, so
  // the sign select reproduces TimelessJa's multiply bit-for-bit.
  const double dk1pc = deltah_ > 0.0 ? one_pc_k_ : -one_pc_k_;

  // Forward Euler integration method, with the (1+c) factor distributed into
  // the precomputed denominator terms exactly like TimelessJa.
  const double dh = deltah_;
  const double deltam = man_ - mtotal_;
  const double denom = dk1pc - one_pc_alpha_ms_ * deltam;
  const double dmdh1 = deltam / denom;
  const double dmdh = dmdh1 > 0.0 ? dmdh1 : 0.0;  // assure positive derivative
  // TimelessJa counts a degenerate denominator and a clamped negative slope
  // in the same bucket (at most one per event — the || short-circuits).
  if (denom == 0.0 || dmdh1 < 0.0) ++stats_.slope_clamps;
  double dm = dh * dmdh;
  if (dm * dh < 0.0) {
    ++stats_.direction_clamps;
    dm = 0.0;
  }
  mirr_ += dm;
  ++stats_.integration_steps;

  // Republish through core() so Msig/Bsig include this event's dm.
  refresh_.write(++refresh_count_);
}

SystemCSweepResult run_systemc_sweep(const mag::JaParameters& params,
                                     double dhmax, const wave::HSweep& sweep) {
  SystemCSweepResult result;
  hdl::Kernel kernel;
  JaCoreModule module(kernel, "ja", params, dhmax);
  for (const double h : sweep.h) {
    module.H.write(h);
    kernel.settle();
    result.curve.append(h, params.ms * module.Msig.read(), module.Bsig.read());
  }
  result.kernel_stats = kernel.stats();
  result.stats = module.stats();
  // One sample per sweep entry applied, like TimelessJa counts apply()
  // calls — the module cannot observe writes its signal deduplicates.
  result.stats.samples = static_cast<std::uint64_t>(sweep.h.size());
  return result;
}

}  // namespace ferro::core
