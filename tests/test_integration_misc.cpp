// Cross-cutting integration tests: kernel edge cases.
#include <gtest/gtest.h>

#include <string>

#include "hdl/kernel.hpp"
#include "hdl/signal.hpp"

namespace fh = ferro::hdl;

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
