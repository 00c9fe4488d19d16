#include "ams/integrator.hpp"

namespace ferro::ams {

void OdeSystem::on_step_accepted(double, std::span<const double>) {}

std::string_view to_string(IntegrationMethod method) {
  switch (method) {
    case IntegrationMethod::kBackwardEuler: return "backward-euler";
    case IntegrationMethod::kTrapezoidal: return "trapezoidal";
    case IntegrationMethod::kGear2: return "gear2";
  }
  return "?";
}

}  // namespace ferro::ams
