// SPICE-like text netlist frontend for the circuit engine.
//
// The paper motivates JA core models by their use in SPICE/SABER; this
// parser makes the ckt engine usable the way those tools are: a plain-text
// deck in, devices and analysis directives out.
//
// Supported card set (case-insensitive device letters, '*' comments,
// SPICE value suffixes f p n u m k meg g t):
//
//   V<name> n+ n- <value>                       DC voltage source
//   V<name> n+ n- SIN(<offset> <ampl> <freq>)   sine source
//   V<name> n+ n- TRI(<ampl> <period>)          triangular source
//   V<name> n+ n- PWL(t1 v1 t2 v2 ...)          piecewise linear
//   I<name> n+ n- <value> | SIN(...) | ...      current source
//   R<name> n1 n2 <ohms>
//   C<name> n1 n2 <farads> [ic=<volts>]
//   L<name> n1 n2 <henries> [ic=<amps>]
//   D<name> anode cathode [is=<amps>] [n=<emission>]
//   S<name> n1 n2 t=<switch-time> [opens]
//   Y<name> n1 n2 area=<m2> path=<m> turns=<n> material=<name>
//           [dhmax=<A/m>]                       JA-core inductor
//   T<name> p+ p- s+ s- area=<m2> path=<m> turns=<np> ns=<ns>
//           material=<name> [dhmax=<A/m>]       JA-core transformer
//   K<name> p+ p- s+ s- l1=<H> l2=<H> k=<0..1>  linear coupled inductors
//   .tran <dt_max> <t_end>
//   .end                                        (optional)
//
// Node "0" (or gnd/GND) is ground. Unknown cards, malformed or non-finite
// values and values outside a card's domain (a SIN frequency or TRI period
// <= 0, l1/l2/area/path/dhmax <= 0, turns/ns not a whole number >= 1) are
// reported with line numbers; parsing is all-or-nothing.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckt/engine.hpp"
#include "ckt/netlist.hpp"

namespace ferro::ckt {

/// A requested analysis (.tran card).
struct TranDirective {
  double dt_max = 0.0;
  double t_end = 0.0;
};

/// Result of parsing a deck: the circuit plus any analysis directives.
struct ParsedNetlist {
  Circuit circuit;
  std::optional<TranDirective> tran;
  std::vector<std::string> device_names;  ///< in deck order
};

/// One parse diagnostic.
struct ParseError {
  std::size_t line = 0;  ///< 1-based line number
  std::string message;
};

/// Outcome of parse_netlist: either a circuit or a list of errors.
struct ParseResult {
  std::optional<ParsedNetlist> netlist;  ///< set on success
  std::vector<ParseError> errors;        ///< non-empty on failure

  [[nodiscard]] bool ok() const { return netlist.has_value(); }
};

/// Parses a complete deck from text.
[[nodiscard]] ParseResult parse_netlist(std::string_view text);

/// Value interception for Monte-Carlo corner builds: called for every
/// scatterable quantity as the deck is parsed — `device` is the card name
/// lowercased ("r1", "lcore"), `param` the quantity ("value", "ms",
/// "area", ...) — and returns the value the device is built with. The
/// identity hook reproduces parse_netlist(text) exactly; a corner hook maps
/// (device, param) to `nominal * factor` via ckt::CornerView. Scatterable:
/// R/C/L "value"; D "is"/"n"; K "l1"/"l2"/"k"; Y/T "area"/"path" and the JA
/// parameters "ms"/"a"/"k"/"c"/"alpha" plus "dhmax".
using ScatterHook = std::function<double(
    std::string_view device, std::string_view param, double nominal)>;

/// Parses a deck with every scatterable value routed through `hook` (empty
/// hook = plain parse). Scattered JA parameter sets are re-validated; a
/// corner that scatters a core into an invalid region fails the parse like
/// any other malformed card.
[[nodiscard]] ParseResult parse_netlist(std::string_view text,
                                        const ScatterHook& hook);

/// Parses a SPICE-style number with optional suffix: "4.7k" -> 4700,
/// "1meg" -> 1e6, "10u" -> 1e-5. Returns nullopt on malformed input and on
/// a non-finite result ("nan", "inf", or a scale that overflows).
[[nodiscard]] std::optional<double> parse_spice_value(std::string_view token);

}  // namespace ferro::ckt
