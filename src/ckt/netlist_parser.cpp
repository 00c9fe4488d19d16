#include "ckt/netlist_parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "ckt/diode.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/mutual.hpp"
#include "ckt/rlc.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "mag/ja_params.hpp"
#include "wave/pwl.hpp"
#include "wave/standard.hpp"

namespace ferro::ckt {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// Splits a card into whitespace-separated tokens, keeping "FN(...)" calls
/// (possibly containing spaces) as single tokens.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    std::size_t start = i;
    int depth = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (depth == 0 && std::isspace(static_cast<unsigned char>(c))) break;
      ++i;
    }
    tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

/// key=value token split; returns false when no '=' present.
bool split_kv(std::string_view token, std::string& key, std::string& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  key = to_lower(token.substr(0, eq));
  value = std::string(token.substr(eq + 1));
  return true;
}

/// parse_spice_value without the finiteness check.
std::optional<double> scaled_value(std::string_view token) {
  if (token.empty()) return std::nullopt;
  // Numeric prefix.
  double mantissa = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, mantissa);
  if (ec != std::errc{} || ptr == begin) return std::nullopt;

  const std::string suffix = to_lower(std::string_view(ptr, static_cast<std::size_t>(end - ptr)));
  if (suffix.empty()) return mantissa;

  static const std::map<std::string, double> kSuffixes = {
      {"f", 1e-15}, {"p", 1e-12}, {"n", 1e-9}, {"u", 1e-6}, {"m", 1e-3},
      {"k", 1e3},   {"meg", 1e6}, {"g", 1e9},  {"t", 1e12},
  };
  // Allow trailing unit letters after the scale ("10uF", "4.7kohm"): match
  // the longest known suffix prefix, ignore the rest if alphabetic.
  for (const auto& [sfx, scale] : kSuffixes) {
    if (suffix.rfind(sfx, 0) == 0) {
      const std::string rest = suffix.substr(sfx.size());
      const bool rest_alpha = std::all_of(rest.begin(), rest.end(), [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) != 0;
      });
      // "m" must not shadow "meg".
      if (sfx == "m" && suffix.rfind("meg", 0) == 0) continue;
      if (rest_alpha) return mantissa * scale;
    }
  }
  // Pure unit suffix like "1.5v" / "0.02s": ignore if alphabetic.
  if (std::all_of(suffix.begin(), suffix.end(), [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) != 0;
      })) {
    return mantissa;
  }
  return std::nullopt;
}

}  // namespace

std::optional<double> parse_spice_value(std::string_view token) {
  // from_chars takes "nan" and "inf", and a scale suffix can overflow a
  // finite mantissa ("1e305t"): no card has a use for either.
  const auto value = scaled_value(token);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

namespace {

/// Parses a source expression: plain value, SIN(...), TRI(...), PWL(...).
std::optional<wave::WaveformPtr> parse_source(const std::string& token,
                                              std::string& error) {
  const std::string lower = to_lower(token);
  const auto call_args = [&](std::string_view name) -> std::optional<std::vector<double>> {
    if (lower.rfind(to_lower(std::string(name)) + "(", 0) != 0) return std::nullopt;
    if (token.back() != ')') {
      error = "missing ')' in " + token;
      return std::nullopt;
    }
    const std::string inner =
        token.substr(name.size() + 1, token.size() - name.size() - 2);
    std::vector<double> args;
    for (const auto& t : tokenize(inner)) {
      const auto v = parse_spice_value(t);
      if (!v) {
        error = "bad number '" + t + "' in " + token;
        return std::nullopt;
      }
      args.push_back(*v);
    }
    return args;
  };

  if (auto args = call_args("SIN")) {
    if (args->size() != 3) {
      error = "SIN needs (offset ampl freq)";
      return std::nullopt;
    }
    if (!((*args)[2] > 0.0)) {
      error = "SIN frequency must be > 0";
      return std::nullopt;
    }
    return std::make_shared<wave::Sine>((*args)[1], (*args)[2], 0.0, (*args)[0]);
  }
  if (!error.empty()) return std::nullopt;

  if (auto args = call_args("TRI")) {
    if (args->size() != 2) {
      error = "TRI needs (ampl period)";
      return std::nullopt;
    }
    if (!((*args)[1] > 0.0)) {
      error = "TRI period must be > 0";
      return std::nullopt;
    }
    return std::make_shared<wave::Triangular>((*args)[0], (*args)[1]);
  }
  if (!error.empty()) return std::nullopt;

  if (auto args = call_args("PWL")) {
    if (args->size() < 2 || args->size() % 2 != 0) {
      error = "PWL needs an even number of (t v) values";
      return std::nullopt;
    }
    std::vector<wave::PwlPoint> points;
    for (std::size_t i = 0; i < args->size(); i += 2) {
      points.push_back({(*args)[i], (*args)[i + 1]});
    }
    return std::make_shared<wave::Pwl>(std::move(points));
  }
  if (!error.empty()) return std::nullopt;

  const auto value = parse_spice_value(token);
  if (!value) {
    error = "bad source value '" + token + "'";
    return std::nullopt;
  }
  return std::make_shared<wave::Constant>(*value);
}

/// Collects key=value options from the tail of a card.
bool parse_options(const std::vector<std::string>& tokens, std::size_t first,
                   std::map<std::string, std::string>& kv,
                   std::vector<std::string>& flags, std::string& error) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    std::string key, value;
    if (split_kv(tokens[i], key, value)) {
      kv[key] = value;
    } else {
      flags.push_back(to_lower(tokens[i]));
    }
  }
  (void)error;
  return true;
}

/// The numeric option `key`, or nullopt when the card leaves it out. A value
/// the card sets but that does not parse sets `error` (the first one wins)
/// instead of falling back to the default.
std::optional<double> option_value(const std::map<std::string, std::string>& kv,
                                   const std::string& key, std::string& error) {
  const auto it = kv.find(key);
  if (it == kv.end()) return std::nullopt;
  const auto value = parse_spice_value(it->second);
  if (!value && error.empty()) {
    error = "bad value '" + it->second + "' for " + key + "=";
  }
  return value;
}

/// A winding count: a whole number in [1, INT_MAX].
std::optional<int> whole_turns(double value) {
  if (!(value >= 1.0 &&
        value <= static_cast<double>(std::numeric_limits<int>::max())) ||
      value != std::floor(value)) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

/// Builds a JA core config from area/path/turns/material/dhmax options.
bool parse_core_options(const std::map<std::string, std::string>& kv,
                        mag::CoreGeometry& geom, mag::JaParameters& params,
                        mag::TimelessConfig& config, std::string& error) {
  const auto area = option_value(kv, "area", error);
  const auto path = option_value(kv, "path", error);
  const auto turns = option_value(kv, "turns", error);
  const auto dhmax = option_value(kv, "dhmax", error);
  if (!error.empty()) return false;
  if (!area || !path || !turns) {
    error = "core device needs area=, path=, turns=";
    return false;
  }
  if (!(*area > 0.0) || !(*path > 0.0)) {
    error = "area= and path= must be > 0";
    return false;
  }
  const auto n = whole_turns(*turns);
  if (!n) {
    error = "turns= must be a whole number in [1, INT_MAX]";
    return false;
  }
  if (dhmax && !(*dhmax > 0.0)) {
    error = "dhmax= must be > 0";
    return false;
  }
  geom.area = *area;
  geom.path_length = *path;
  geom.turns = *n;

  const auto mat_it = kv.find("material");
  const std::string material =
      mat_it != kv.end() ? mat_it->second : std::string("paper-2006");
  const mag::Material* found = mag::find_material(material);
  if (found == nullptr) {
    error = "unknown material '" + material + "'";
    return false;
  }
  params = found->params;

  // Without dhmax= the threshold defaults to (a + k) / 1200.
  config.dhmax = dhmax ? *dhmax : (params.a + params.k) / 1200.0;
  return true;
}

}  // namespace

ParseResult parse_netlist(std::string_view text) {
  return parse_netlist(text, ScatterHook{});
}

ParseResult parse_netlist(std::string_view text, const ScatterHook& hook) {
  ParseResult result;
  ParsedNetlist netlist;

  std::size_t line_no = 0;
  std::size_t start = 0;
  const auto fail = [&](const std::string& message) {
    result.errors.push_back({line_no, message});
  };

  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line =
        text.substr(start, nl == std::string_view::npos ? text.size() - start
                                                        : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0][0] == '*') continue;  // comment

    const std::string card = to_lower(tokens[0]);
    if (card == ".end") break;

    if (card == ".tran") {
      if (tokens.size() < 3) {
        fail(".tran needs <dt_max> <t_end>");
        continue;
      }
      const auto dt = parse_spice_value(tokens[1]);
      const auto t_end = parse_spice_value(tokens[2]);
      if (!dt || !t_end) {
        fail(".tran has malformed numbers");
        continue;
      }
      if (!(*dt > 0.0) || !(*t_end > 0.0)) {
        fail(".tran <dt_max> and <t_end> must be > 0");
        continue;
      }
      netlist.tran = TranDirective{*dt, *t_end};
      continue;
    }
    if (card[0] == '.') {
      fail("unknown directive '" + tokens[0] + "'");
      continue;
    }

    const char kind = card[0];
    const std::string& name = tokens[0];
    std::map<std::string, std::string> kv;
    std::vector<std::string> flags;
    std::string error;

    const auto node = [&](std::size_t i) {
      return netlist.circuit.node(tokens[i]);
    };

    // Routes one scatterable quantity through the corner hook (identity
    // when no hook is set). Keyed by the lowercased device name.
    const auto scattered = [&](std::string_view param, double nominal) {
      return hook ? hook(card, param, nominal) : nominal;
    };
    // Scatters geometry + JA parameters of a core card and re-validates:
    // a corner can push a parameter set out of the model's valid region.
    const auto scatter_core = [&](mag::CoreGeometry& geom,
                                  mag::JaParameters& params,
                                  mag::TimelessConfig& config) {
      if (!hook) return true;
      geom.area = scattered("area", geom.area);
      geom.path_length = scattered("path", geom.path_length);
      params.ms = scattered("ms", params.ms);
      params.a = scattered("a", params.a);
      params.k = scattered("k", params.k);
      params.c = scattered("c", params.c);
      params.alpha = scattered("alpha", params.alpha);
      config.dhmax = scattered("dhmax", config.dhmax);
      if (!params.is_valid()) {
        fail(name + ": scattered JA parameters are invalid");
        return false;
      }
      return true;
    };

    switch (kind) {
      case 'v':
      case 'i': {
        if (tokens.size() < 4) {
          fail(name + " needs n+ n- <value|SIN|TRI|PWL>");
          break;
        }
        const auto source = parse_source(tokens[3], error);
        if (!source) {
          fail(name + ": " + error);
          break;
        }
        if (kind == 'v') {
          netlist.circuit.add<VoltageSource>(name, node(1), node(2), *source);
        } else {
          netlist.circuit.add<CurrentSource>(name, node(1), node(2), *source);
        }
        netlist.device_names.push_back(name);
        break;
      }
      case 'r': {
        if (tokens.size() < 4) {
          fail(name + " needs n1 n2 <ohms>");
          break;
        }
        const auto ohms = parse_spice_value(tokens[3]);
        if (!ohms || *ohms <= 0.0) {
          fail(name + ": bad resistance '" + tokens[3] + "'");
          break;
        }
        netlist.circuit.add<Resistor>(name, node(1), node(2),
                                      scattered("value", *ohms));
        netlist.device_names.push_back(name);
        break;
      }
      case 'c':
      case 'l': {
        if (tokens.size() < 4) {
          fail(name + " needs n1 n2 <value> [ic=...]");
          break;
        }
        const auto value = parse_spice_value(tokens[3]);
        if (!value || *value <= 0.0) {
          fail(name + ": bad value '" + tokens[3] + "'");
          break;
        }
        parse_options(tokens, 4, kv, flags, error);
        const auto ic = option_value(kv, "ic", error);
        if (!error.empty()) {
          fail(name + ": " + error);
          break;
        }
        if (kind == 'c') {
          netlist.circuit.add<Capacitor>(name, node(1), node(2),
                                         scattered("value", *value), ic);
        } else {
          netlist.circuit.add<Inductor>(name, node(1), node(2),
                                        scattered("value", *value), ic);
        }
        netlist.device_names.push_back(name);
        break;
      }
      case 'd': {
        if (tokens.size() < 3) {
          fail(name + " needs anode cathode");
          break;
        }
        parse_options(tokens, 3, kv, flags, error);
        const auto is = option_value(kv, "is", error);
        const auto n = option_value(kv, "n", error);
        if (!error.empty()) {
          fail(name + ": " + error);
          break;
        }
        if (!(is.value_or(1e-14) > 0.0) || !(n.value_or(1.0) > 0.0)) {
          fail(name + ": is= and n= must be > 0");
          break;
        }
        const double i_sat = scattered("is", is.value_or(1e-14));
        const double emission = scattered("n", n.value_or(1.0));
        netlist.circuit.add<Diode>(name, node(1), node(2), i_sat, emission);
        netlist.device_names.push_back(name);
        break;
      }
      case 's': {
        if (tokens.size() < 4) {
          fail(name + " needs n1 n2 t=<time> [opens]");
          break;
        }
        parse_options(tokens, 3, kv, flags, error);
        const auto t_switch = option_value(kv, "t", error);
        if (!error.empty()) {
          fail(name + ": " + error);
          break;
        }
        if (!t_switch) {
          fail(name + ": missing t=<switch-time>");
          break;
        }
        const bool opens =
            std::find(flags.begin(), flags.end(), "opens") != flags.end();
        netlist.circuit.add<TimedSwitch>(name, node(1), node(2), *t_switch,
                                         opens);
        netlist.device_names.push_back(name);
        break;
      }
      case 'y': {  // JA-core inductor
        if (tokens.size() < 4) {
          fail(name + " needs n1 n2 area= path= turns= [material=] [dhmax=]");
          break;
        }
        parse_options(tokens, 3, kv, flags, error);
        mag::CoreGeometry geom;
        mag::JaParameters params;
        mag::TimelessConfig config;
        if (!parse_core_options(kv, geom, params, config, error)) {
          fail(name + ": " + error);
          break;
        }
        if (!scatter_core(geom, params, config)) break;
        netlist.circuit.add<JaInductor>(name, node(1), node(2), geom, params,
                                        config);
        netlist.device_names.push_back(name);
        break;
      }
      case 'k': {  // linear coupled inductors
        if (tokens.size() < 6) {
          fail(name + " needs p+ p- s+ s- l1= l2= k=");
          break;
        }
        parse_options(tokens, 5, kv, flags, error);
        const auto l1 = option_value(kv, "l1", error);
        const auto l2 = option_value(kv, "l2", error);
        const auto coupling = option_value(kv, "k", error);
        if (!error.empty()) {
          fail(name + ": " + error);
          break;
        }
        if (!l1 || !l2 || !coupling) {
          fail(name + ": needs l1=, l2=, k=");
          break;
        }
        if (!(*l1 > 0.0) || !(*l2 > 0.0)) {
          fail(name + ": l1= and l2= must be > 0");
          break;
        }
        if (!(*coupling >= 0.0 && *coupling < 1.0)) {
          fail(name + ": coupling k must be in [0, 1)");
          break;
        }
        netlist.circuit.add<MutualInductor>(
            name, node(1), node(2), node(3), node(4), scattered("l1", *l1),
            scattered("l2", *l2), scattered("k", *coupling));
        netlist.device_names.push_back(name);
        break;
      }
      case 't': {  // JA-core transformer
        if (tokens.size() < 6) {
          fail(name + " needs p+ p- s+ s- area= path= turns= ns= ...");
          break;
        }
        parse_options(tokens, 5, kv, flags, error);
        mag::CoreGeometry geom;
        mag::JaParameters params;
        mag::TimelessConfig config;
        if (!parse_core_options(kv, geom, params, config, error)) {
          fail(name + ": " + error);
          break;
        }
        const auto ns = option_value(kv, "ns", error);
        if (!error.empty()) {
          fail(name + ": " + error);
          break;
        }
        if (!ns) {
          fail(name + ": missing ns=<secondary turns>");
          break;
        }
        const auto secondary_turns = whole_turns(*ns);
        if (!secondary_turns) {
          fail(name + ": ns= must be a whole number in [1, INT_MAX]");
          break;
        }
        if (!scatter_core(geom, params, config)) break;
        netlist.circuit.add<JaTransformer>(name, node(1), node(2), node(3),
                                           node(4), geom, *secondary_turns,
                                           params, config);
        netlist.device_names.push_back(name);
        break;
      }
      default:
        fail("unknown device card '" + name + "'");
        break;
    }
  }

  if (!result.errors.empty()) return result;
  result.netlist.emplace(std::move(netlist));
  return result;
}

}  // namespace ferro::ckt
