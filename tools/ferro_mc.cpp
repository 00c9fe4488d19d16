// ferro_mc — Monte-Carlo tolerance sweep over a SPICE-style deck.
//
// Takes a netlist plus a scatter spec (which device parameters vary, by how
// much, under which distribution), fans N corners across the thread pool
// in lockstep groups that solve their Newton systems in SIMD lanes
// (ckt::MonteCarlo), and streams one JSONL
// record per corner — per-corner metrics and probe summaries, never the
// full waveform set, so corner counts in the tens of thousands run in
// bounded memory.
//
// Typical use:
//   ferro_mc deck.cir --scatter tol.spec --corners 1024 --threads 8 \
//            --probe "i(y1)" --probe "b(y1)" --out corners.jsonl
//
// The scatter spec is one scattered quantity per line (see ckt/scatter.hpp):
//   r1.value  0.05
//   y1.ms     0.10  normal
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckt/monte_carlo.hpp"
#include "ckt/netlist_parser.hpp"
#include "ckt/scatter.hpp"
#include "util/stream_writer.hpp"
#include "util/strings.hpp"

namespace {

using namespace ferro;

void usage(const char* argv0) {
  std::printf(
      "usage: %s <netlist> [options]\n"
      "\n"
      "sweep\n"
      "  --scatter FILE    scatter spec (default: no scatter, all nominal)\n"
      "  --corners N       corner count (default: 64)\n"
      "  --seed N          batch seed (default: 1)\n"
      "  --threads N       total workers, 0 = hardware (default: 0)\n"
      "  --chunk N         corners per lockstep group, 0 = auto (default: 0)\n"
      "  --packing MODE    scalar | packed (default: packed)\n"
      "\n"
      "transient (defaults from the deck's .tran card)\n"
      "  --dt-initial S    initial step (default: 1e-6)\n"
      "  --t-end S         override the .tran horizon (> 0)\n"
      "\n"
      "output\n"
      "  --probe SPEC      v(node) | i(dev) | b(dev) | h(dev); repeatable\n"
      "  --out FILE        JSONL output path (default: mc.jsonl)\n"
      "\n"
      "limits\n"
      "  --deadline S      wall-clock budget, 0 = none (default: 0)\n"
      "  --max-errors N    stop after N failed corners, 0 = none (default: 0)\n",
      argv0);
}

const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value after %s\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// The value after flag argv[i] as a T (util::parse_number); exits 2 naming
/// the flag when it is not one, or when `in_domain` rejects it.
template <typename T>
T arg_number(int argc, char** argv, int& i, bool (*in_domain)(T) = nullptr) {
  const char* flag = argv[i];
  const char* text = arg_value(argc, argv, i);
  const auto value = util::parse_number<T>(text);
  if (value && (in_domain == nullptr || in_domain(*value))) return *value;
  std::fprintf(stderr, "bad value '%s' for %s\n", text, flag);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// "v(out)" -> {kNodeVoltage, "out"}; exits on malformed specs.
ckt::Probe parse_probe(const std::string& spec) {
  ckt::Probe probe;
  if (spec.size() >= 4 && spec[1] == '(' && spec.back() == ')') {
    probe.target = spec.substr(2, spec.size() - 3);
    switch (std::tolower(static_cast<unsigned char>(spec[0]))) {
      case 'v':
        probe.kind = ckt::Probe::Kind::kNodeVoltage;
        return probe;
      case 'i':
        probe.kind = ckt::Probe::Kind::kBranchCurrent;
        return probe;
      case 'b':
        probe.kind = ckt::Probe::Kind::kCoreFluxDensity;
        return probe;
      case 'h':
        probe.kind = ckt::Probe::Kind::kCoreField;
        return probe;
      default:
        break;
    }
  }
  std::fprintf(stderr,
               "bad probe '%s' (expected v(node), i(dev), b(dev), h(dev))\n",
               spec.c_str());
  std::exit(2);
}

/// Streams one JSONL record per corner: index, verdict, stats (including
/// what the engine had to do: singular matrices, forced accepts), and one
/// min/max/abs-peak/final block per probe.
class JsonlCornerSink final : public ckt::CornerSink {
 public:
  JsonlCornerSink(const std::string& path, std::vector<std::string> probe_names)
      : writer_(path), probe_names_(std::move(probe_names)) {}

  void on_start(std::size_t) override {}

  void on_result(std::size_t index, ckt::CornerResult&& result) override {
    std::vector<util::JsonField> fields;
    // Key storage must outlive the record() call; one flat arena per row.
    std::vector<std::string> keys;
    keys.reserve(probe_names_.size() * 5 + result.draws.factors.size());
    fields.push_back({"corner", static_cast<std::uint64_t>(index)});
    fields.push_back({"status", std::string_view(
                                    core::to_string(result.error.code))});
    if (!result.error.ok()) {
      fields.push_back({"detail", std::string_view(result.error.detail)});
    }
    fields.push_back(
        {"steps", static_cast<std::uint64_t>(result.stats.steps_accepted)});
    fields.push_back({"newton_iterations",
                      static_cast<std::uint64_t>(
                          result.stats.newton_iterations)});
    fields.push_back({"singular_matrices",
                      static_cast<std::uint64_t>(
                          result.stats.singular_matrices)});
    fields.push_back({"forced_accepts", static_cast<std::uint64_t>(
                                            result.stats.forced_accepts)});
    for (std::size_t p = 0; p < result.probes.size(); ++p) {
      const ckt::ProbeSummary& s = result.probes[p];
      const std::string& base = probe_names_[p];
      const auto field = [&](const char* suffix, double v) {
        keys.push_back(base + "." + suffix);
        fields.push_back({keys.back(), v});
      };
      field("min", s.min);
      field("max", s.max);
      field("abs_peak", s.abs_peak);
      field("t_abs_peak", s.t_abs_peak);
      field("final", s.final);
    }
    writer_.record(fields);
  }

  void on_complete() override { writer_.flush(); }

  [[nodiscard]] bool ok() const { return writer_.ok(); }
  [[nodiscard]] const std::string& error_detail() const {
    return writer_.error_detail();
  }

 private:
  util::JsonLinesWriter writer_;
  std::vector<std::string> probe_names_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string netlist_path;
  std::string scatter_path;
  std::string out_path = "mc.jsonl";
  std::vector<std::string> probe_specs;
  ckt::MonteCarloOptions options;
  options.corners = 64;
  options.threads = 0;
  std::uint64_t seed = 1;
  std::optional<double> t_end_override;
  options.transient.dt_initial = 1e-6;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (std::strcmp(arg, "--scatter") == 0) {
      scatter_path = arg_value(argc, argv, i);
    } else if (std::strcmp(arg, "--corners") == 0) {
      options.corners = arg_number<std::size_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = arg_number<std::uint64_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--threads") == 0) {
      options.threads = arg_number<unsigned>(argc, argv, i);
    } else if (std::strcmp(arg, "--chunk") == 0) {
      options.chunk = arg_number<std::size_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--packing") == 0) {
      const std::string mode = arg_value(argc, argv, i);
      if (mode == "scalar") {
        options.packing = ckt::McPacking::kScalar;
      } else if (mode == "packed") {
        options.packing = ckt::McPacking::kPackedExact;
      } else {
        std::fprintf(stderr, "unknown packing '%s'\n", mode.c_str());
        return 2;
      }
    } else if (std::strcmp(arg, "--dt-initial") == 0) {
      options.transient.dt_initial = arg_number<double>(
          argc, argv, i, [](double s) { return s > 0.0; });
    } else if (std::strcmp(arg, "--t-end") == 0) {
      t_end_override = arg_number<double>(argc, argv, i,
                                          [](double s) { return s > 0.0; });
    } else if (std::strcmp(arg, "--probe") == 0) {
      probe_specs.push_back(arg_value(argc, argv, i));
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = arg_value(argc, argv, i);
    } else if (std::strcmp(arg, "--deadline") == 0) {
      options.limits.deadline_s = arg_number<double>(
          argc, argv, i, [](double s) { return s >= 0.0; });
    } else if (std::strcmp(arg, "--max-errors") == 0) {
      options.limits.max_errors = arg_number<std::size_t>(argc, argv, i);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg);
      usage(argv[0]);
      return 2;
    } else if (netlist_path.empty()) {
      netlist_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", arg);
      return 2;
    }
  }
  if (netlist_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  // Parse the deck once at nominal: validates the netlist up front and
  // provides the .tran horizon. Corners re-parse with the scatter hook.
  const std::string deck = read_file(netlist_path);
  auto nominal = ckt::parse_netlist(deck);
  if (!nominal.ok()) {
    for (const auto& e : nominal.errors) {
      std::fprintf(stderr, "%s:%zu: %s\n", netlist_path.c_str(), e.line,
                   e.message.c_str());
    }
    return 1;
  }
  if (nominal.netlist->tran) {
    options.transient.dt_max = nominal.netlist->tran->dt_max;
    options.transient.t_end = nominal.netlist->tran->t_end;
  } else if (!t_end_override) {
    std::fprintf(stderr, "%s has no .tran card; pass --t-end\n",
                 netlist_path.c_str());
    return 1;
  }
  if (t_end_override) options.transient.t_end = *t_end_override;

  ckt::ScatterSpec spec;
  if (!scatter_path.empty()) {
    const auto parsed = ckt::parse_scatter_spec(read_file(scatter_path));
    if (!parsed.ok()) {
      for (const auto& e : parsed.errors) {
        std::fprintf(stderr, "%s: %s\n", scatter_path.c_str(), e.c_str());
      }
      return 1;
    }
    spec = *parsed.spec;
  }

  for (const auto& p : probe_specs) options.probes.push_back(parse_probe(p));

  ckt::MonteCarlo mc(
      ckt::CornerSampler(spec, seed),
      [&deck](const ckt::CornerView& view, ckt::Circuit& circuit) {
        auto corner = ckt::parse_netlist(
            deck, [&view](std::string_view device, std::string_view param,
                          double nominal_value) {
              return view.value(
                  std::string(device) + "." + std::string(param),
                  nominal_value);
            });
        if (!corner.ok()) {
          throw std::runtime_error("line " +
                                   std::to_string(corner.errors.front().line) +
                                   ": " + corner.errors.front().message);
        }
        circuit = std::move(corner.netlist->circuit);
      });

  JsonlCornerSink jsonl(out_path, probe_specs);
  ckt::CornerOrderedSink ordered(jsonl);

  const auto t0 = std::chrono::steady_clock::now();
  const core::StreamSummary summary = mc.run(options, ordered);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("ferro_mc: %zu corners (%s, seed %llu)\n", options.corners,
              std::string(to_string(options.packing)).c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("  completed : %zu\n",
              options.corners - summary.failed_jobs - summary.cancelled_jobs);
  std::printf("  failed    : %zu\n", summary.failed_jobs);
  std::printf("  cancelled : %zu\n", summary.cancelled_jobs);
  if (!summary.stop.ok()) {
    std::printf("  stopped   : %s\n", summary.stop.message().c_str());
  }
  std::printf("  elapsed   : %.3f s (%.1f corners/s)\n", elapsed,
              elapsed > 0.0 ? static_cast<double>(options.corners) / elapsed
                            : 0.0);
  std::printf("  wrote %s (%zu records)\n", out_path.c_str(),
              summary.delivered);

  if (!jsonl.ok()) {
    std::fprintf(stderr, "output error: %s\n", jsonl.error_detail().c_str());
    return 1;
  }
  if (!summary.ok()) {
    std::fprintf(stderr, "stream error: %s\n",
                 summary.sink_error.message().c_str());
    return 1;
  }
  return summary.failed_jobs == 0 ? 0 : 3;
}
