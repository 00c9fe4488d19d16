// The transient engine's implicit integration formulas.
#pragma once

#include <string_view>

#include "ams/ode.hpp"

namespace ferro::ams {

/// Implicit single/multi-step formulas offered by the transient engine.
enum class IntegrationMethod {
  kBackwardEuler,  ///< 1st order, L-stable, heavily damped
  kTrapezoidal,    ///< 2nd order, A-stable, the SPICE default
  kGear2,          ///< BDF2, 2nd order, L-stable (variable-step form)
};

[[nodiscard]] std::string_view to_string(IntegrationMethod method);

}  // namespace ferro::ams
