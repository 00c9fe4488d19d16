// Waveform tracing: VCD, readable by any EDA waveform viewer.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "hdl/time.hpp"

namespace ferro::hdl {

/// Writes IEEE-1364 VCD with real-valued variables. Usage:
///   VcdWriter vcd("run.vcd");
///   auto h = vcd.add_real("H");
///   ... per sample: vcd.begin_time(kernel.now()); vcd.value(h, 123.4);
class VcdWriter {
 public:
  /// `timescale` must be a valid VCD timescale token; the kernel's native
  /// resolution is 1 fs.
  explicit VcdWriter(const std::string& path, const std::string& timescale = "1 fs");
  ~VcdWriter();

  VcdWriter(const VcdWriter&) = delete;
  VcdWriter& operator=(const VcdWriter&) = delete;

  using VarHandle = std::size_t;

  /// Declares a real variable; must precede the first begin_time().
  VarHandle add_real(const std::string& name);

  /// Starts a new time frame (monotonically increasing).
  void begin_time(SimTime t);

  /// Emits a value change for `var` in the current frame.
  void value(VarHandle var, double v);

  [[nodiscard]] bool ok() const { return stream_.good(); }

 private:
  void write_header();
  [[nodiscard]] std::string id_code(std::size_t index) const;

  std::ofstream stream_;
  std::string timescale_;
  std::vector<std::string> names_;
  bool header_written_ = false;
  std::int64_t last_time_fs_ = -1;
};

}  // namespace ferro::hdl
