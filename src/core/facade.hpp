// Facade — the one-call public API: a model spec + frontend choice in,
// BH curve out. This is what the quickstart example uses.
//
// The type is model-neutral (mag/model.hpp): a `Facade` runs any
// core::ModelSpec.
#pragma once

#include <string_view>

#include "core/model_spec.hpp"
#include "mag/bh.hpp"
#include "wave/sweep.hpp"
#include "wave/waveform.hpp"

namespace ferro::core {

/// Which implementation executes the discretisation.
enum class Frontend {
  kDirect,   ///< plain in-process model object (fastest)
  kSystemC,  ///< the paper's process network on the event kernel (JA only)
  kAms,      ///< VHDL-AMS-style: analogue solver drives H(t) (JA only)
};

[[nodiscard]] std::string_view to_string(Frontend f);

/// True when `frontend` can execute the model `spec` describes. The event
/// and analogue frontends implement the paper's JA process network; the
/// energy-based model runs on the direct frontend only.
[[nodiscard]] bool frontend_supports(const ModelSpec& spec, Frontend frontend);

class Facade {
 public:
  /// Runs whichever backend `spec` selects.
  explicit Facade(ModelSpec spec);

  /// JA convenience constructor, equivalent to Facade(JaSpec{params, config}).
  explicit Facade(mag::JaParameters params, mag::TimelessConfig config = {});

  /// Timeless DC sweep (kDirect and kSystemC; kAms needs a time axis and
  /// synthesises a 1 s linear traversal of the sweep). Throws
  /// std::invalid_argument when the frontend cannot execute the model
  /// (frontend_supports is the predicate).
  [[nodiscard]] mag::BhCurve run(const wave::HSweep& sweep,
                                 Frontend frontend = Frontend::kDirect) const;

  /// Time-driven run over [t0, t1]: kDirect/kSystemC sample the waveform at
  /// `n_samples` uniform points; kAms lets the analogue solver pick steps.
  /// Same model-support contract as the sweep overload.
  [[nodiscard]] mag::BhCurve run(const wave::Waveform& h_of_t, double t0,
                                 double t1, std::size_t n_samples,
                                 Frontend frontend = Frontend::kDirect) const;

  [[nodiscard]] const ModelSpec& model() const { return spec_; }
  [[nodiscard]] mag::ModelKind kind() const { return model_kind(spec_); }

  /// JA views of the spec (std::get semantics: throws for an energy job).
  /// Kept for the pre-redesign callers that knew the facade was JA-only.
  [[nodiscard]] const mag::JaParameters& params() const {
    return std::get<JaSpec>(spec_).params;
  }
  [[nodiscard]] const mag::TimelessConfig& config() const {
    return std::get<JaSpec>(spec_).config;
  }

 private:
  ModelSpec spec_;
};

}  // namespace ferro::core
