// Jiles-Atherton model parameters and material presets.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ferro::mag {

/// Which anhysteretic magnetisation curve to use.
///
/// The 2006 paper's listing uses the *modified Langevin* of Wilson et al.
/// (DATE 2004): Man/Ms = (2/pi)*atan(He/a). Its parameter list also carries
/// `a2`; the dual-scale blend is this library's reconstruction of how a
/// second shape parameter enters.
enum class AnhystereticKind {
  kClassicLangevin,  ///< L(x) = coth(x) - 1/x with x = He/a (Jiles-Atherton 1984)
  kAtan,             ///< (2/pi)*atan(He/a) (Wilson et al.; the paper's Lang_mod)
  kDualAtan,         ///< (2/pi)*[w*atan(He/a) + (1-w)*atan(He/a2)]
};

[[nodiscard]] std::string_view to_string(AnhystereticKind kind);

/// The five classic JA parameters plus the paper's `a2` and the blend
/// weight for kDualAtan. SI units (A/m where dimensional).
struct JaParameters {
  double ms = 1.6e6;     ///< saturation magnetisation Msat [A/m]
  double a = 2000.0;     ///< anhysteretic shape parameter [A/m]
  double k = 4000.0;     ///< pinning-loss parameter [A/m]
  double c = 0.1;        ///< reversibility coefficient [-], 0 <= c < 1
  double alpha = 0.003;  ///< inter-domain coupling [-]
  double a2 = 3500.0;    ///< second shape parameter [A/m] (paper's extra)
  double blend = 0.5;    ///< weight of the `a` term in kDualAtan, in [0,1]
  AnhystereticKind kind = AnhystereticKind::kAtan;

  /// Empty if valid; otherwise a human-readable list of violations.
  [[nodiscard]] std::vector<std::string> validate() const;
  [[nodiscard]] bool is_valid() const { return validate().empty(); }

  /// alpha*ms [A/m] — when this approaches k, the JA slope denominator can
  /// change sign and the raw model produces non-physical negative slopes
  /// (the CLM5 experiment).
  [[nodiscard]] double coupling_field() const { return alpha * ms; }
};

/// The exact parameter set of the paper (Sec. 2): k=4000, c=0.1, Msat=1.6M,
/// alpha=0.003, a=2000, a2=3500, atan anhysteretic.
[[nodiscard]] JaParameters paper_parameters();

/// Same parameters but with the dual-scale blend (uses a2); this is the set
/// FIG1 is generated with, since the paper lists a2 among its parameters.
[[nodiscard]] JaParameters paper_parameters_dual();

/// A named material preset.
struct Material {
  std::string name;
  std::string description;
  JaParameters params;
};

/// Built-in material library (paper set + representative soft materials with
/// parameters in the ranges published for JA fits).
[[nodiscard]] const std::vector<Material>& material_library();

/// Lookup by name; returns nullptr when absent.
[[nodiscard]] const Material* find_material(std::string_view name);

}  // namespace ferro::mag
