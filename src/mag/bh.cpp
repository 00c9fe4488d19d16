#include "mag/bh.hpp"

#include "util/csv.hpp"

namespace ferro::mag {

std::vector<double> BhCurve::h_values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.h);
  return out;
}

std::vector<double> BhCurve::m_values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.m);
  return out;
}

std::vector<double> BhCurve::b_values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.b);
  return out;
}

bool BhCurve::write_csv(const std::string& path) const {
  util::CsvWriter writer(path, {"h", "m", "b"});
  for (const auto& p : points_) {
    writer.row({p.h, p.m, p.b});
  }
  // The last rows are still buffered: a full disk fails only in the flush.
  writer.flush();
  return writer.ok();
}

}  // namespace ferro::mag
