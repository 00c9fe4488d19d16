#include "hdl/trace.hpp"

namespace ferro::hdl {

VcdWriter::VcdWriter(const std::string& path, const std::string& timescale)
    : stream_(path), timescale_(timescale) {}

VcdWriter::~VcdWriter() {
  if (stream_.is_open()) stream_.flush();
}

std::string VcdWriter::id_code(std::size_t index) const {
  // Printable identifier code per IEEE-1364: base-94 digits from '!'.
  std::string code;
  do {
    code.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index > 0);
  return code;
}

VcdWriter::VarHandle VcdWriter::add_real(const std::string& name) {
  names_.push_back(name);
  return names_.size() - 1;
}

void VcdWriter::write_header() {
  stream_ << "$date ferrohdl $end\n";
  stream_ << "$version ferrohdl vcd writer $end\n";
  stream_ << "$timescale " << timescale_ << " $end\n";
  stream_ << "$scope module ferrohdl $end\n";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    stream_ << "$var real 64 " << id_code(i) << ' ' << names_[i] << " $end\n";
  }
  stream_ << "$upscope $end\n$enddefinitions $end\n";
  header_written_ = true;
}

void VcdWriter::begin_time(SimTime t) {
  if (!header_written_) write_header();
  const std::int64_t fs = t.femtoseconds();
  if (fs != last_time_fs_) {
    stream_ << '#' << fs << '\n';
    last_time_fs_ = fs;
  }
}

void VcdWriter::value(VarHandle var, double v) {
  if (!header_written_) write_header();
  stream_ << 'r' << v << ' ' << id_code(var) << '\n';
}

}  // namespace ferro::hdl
