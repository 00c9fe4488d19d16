// Cross-cutting integration tests: VCD output from the SystemC frontend and
// kernel edge cases.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/systemc_ja.hpp"
#include "hdl/kernel.hpp"
#include "hdl/signal.hpp"
#include "wave/sweep.hpp"

namespace fh = ferro::hdl;
namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fc = ferro::core;

TEST(VcdIntegration, SystemCSweepWritesViewableTrace) {
  const std::string path = "test_systemc_trace.vcd";
  const fw::HSweep sweep = fw::SweepBuilder(100.0).cycles(5e3, 1).build();
  const auto result = fc::run_systemc_sweep(fm::paper_parameters(), 25.0,
                                            sweep, fh::SimTime{}, path);
  ASSERT_GT(result.curve.size(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("$var real 64 ! H $end"), std::string::npos);
  EXPECT_NE(text.find("Msig"), std::string::npos);
  EXPECT_NE(text.find("Bsig"), std::string::npos);
  // One frame per sample.
  std::size_t frames = 0;
  for (std::size_t pos = 0; (pos = text.find("\n#", pos)) != std::string::npos;
       ++pos) {
    ++frames;
  }
  EXPECT_EQ(frames, sweep.h.size());
  std::filesystem::remove(path);
}

TEST(KernelEdges, ScheduleInThePastFiresImmediately) {
  fh::Kernel kernel;
  kernel.run_until(fh::SimTime::ns(100));
  bool fired = false;
  kernel.schedule_at(fh::SimTime::ns(10), [&] { fired = true; });  // past
  kernel.run_until(fh::SimTime::ns(101));
  EXPECT_TRUE(fired);
}

TEST(KernelEdges, MultipleListenersAllWake) {
  fh::Kernel kernel;
  fh::Signal<int> sig(kernel, "s", 0);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    const auto pid = kernel.register_process("p" + std::to_string(i),
                                             [&] { ++woken; });
    kernel.make_sensitive(pid, sig);
  }
  const auto writer = kernel.register_process("w", [&] { sig.write(1); });
  kernel.trigger(writer);
  kernel.settle();
  EXPECT_EQ(woken, 5);
}

TEST(KernelEdges, ProcessNamesAreQueryable) {
  fh::Kernel kernel;
  const auto pid = kernel.register_process("my.proc", [] {});
  EXPECT_EQ(kernel.process_name(pid), "my.proc");
}

TEST(KernelEdges, DoubleTriggerRunsOnce) {
  fh::Kernel kernel;
  int runs = 0;
  const auto pid = kernel.register_process("p", [&] { ++runs; });
  kernel.trigger(pid);
  kernel.trigger(pid);  // dedup while queued
  kernel.settle();
  EXPECT_EQ(runs, 1);
}
