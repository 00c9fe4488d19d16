// Unit tests for the event kernel: delta-cycle semantics and sensitivity.
// These semantics are what make the SystemC-style JA module equivalent to
// the direct TimelessJa — they must be airtight.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "hdl/kernel.hpp"
#include "hdl/module.hpp"
#include "hdl/signal.hpp"

namespace fh = ferro::hdl;

TEST(Signal, WriteIsDeferredToUpdatePhase) {
  fh::Kernel kernel;
  fh::Signal<int> sig(kernel, "s", 0);

  // Value read back inside the same evaluate phase must be the old one.
  int seen_during_process = -1;
  const auto pid = kernel.register_process("writer", [&] {
    sig.write(42);
    seen_during_process = sig.read();
  });
  kernel.trigger(pid);
  kernel.settle();

  EXPECT_EQ(seen_during_process, 0);
  EXPECT_EQ(sig.read(), 42);
}

TEST(Signal, ChangeWakesSensitiveProcess) {
  fh::Kernel kernel;
  fh::Signal<int> sig(kernel, "s", 0);
  int activations = 0;
  const auto pid = kernel.register_process("listener", [&] { ++activations; });
  kernel.make_sensitive(pid, sig);

  const auto writer = kernel.register_process("writer", [&] { sig.write(7); });
  kernel.trigger(writer);
  kernel.settle();
  EXPECT_EQ(activations, 1);
}

TEST(Signal, NoWakeOnSameValueWrite) {
  fh::Kernel kernel;
  fh::Signal<int> sig(kernel, "s", 7);
  int activations = 0;
  const auto pid = kernel.register_process("listener", [&] { ++activations; });
  kernel.make_sensitive(pid, sig);

  const auto writer = kernel.register_process("writer", [&] { sig.write(7); });
  kernel.trigger(writer);
  kernel.settle();
  EXPECT_EQ(activations, 0);  // value unchanged -> no event
}

TEST(Signal, LastWriteWinsWithinDelta) {
  fh::Kernel kernel;
  fh::Signal<int> sig(kernel, "s", 0);
  const auto writer = kernel.register_process("writer", [&] {
    sig.write(1);
    sig.write(2);
  });
  kernel.trigger(writer);
  kernel.settle();
  EXPECT_EQ(sig.read(), 2);
}

TEST(Signal, BoolToggle) {
  fh::Kernel kernel;
  fh::Signal<bool> sig(kernel, "b", false);
  const auto writer = kernel.register_process("writer", [&] { sig.toggle(); });
  kernel.trigger(writer);
  kernel.settle();
  EXPECT_TRUE(sig.read());
}

TEST(Kernel, DeltaCascadePropagatesThroughChain) {
  // a -> p1 -> b -> p2 -> c: two deltas after the initial write settle.
  fh::Kernel kernel;
  fh::Signal<int> a(kernel, "a", 0), b(kernel, "b", 0), c(kernel, "c", 0);

  const auto p1 = kernel.register_process("p1", [&] { b.write(a.read() + 1); });
  kernel.make_sensitive(p1, a);
  const auto p2 = kernel.register_process("p2", [&] { c.write(b.read() + 1); });
  kernel.make_sensitive(p2, b);

  const auto writer = kernel.register_process("writer", [&] { a.write(5); });
  kernel.trigger(writer);
  kernel.settle();

  EXPECT_EQ(b.read(), 6);
  EXPECT_EQ(c.read(), 7);
}

TEST(Kernel, SettleReportsDeltaCountAndGuardsOscillation) {
  fh::Kernel kernel;
  fh::Signal<int> s(kernel, "osc", 0);
  const auto kick =
      kernel.register_process("kick", [&] { s.write(s.read() + 1); });
  // Nothing listens to the signal yet: the write settles in one delta.
  kernel.trigger(kick);
  EXPECT_EQ(kernel.settle(100), 1u);

  // Oscillator: always writes a different value -> never settles.
  const auto pid = kernel.register_process("osc", [&] { s.write(s.read() + 1); });
  kernel.make_sensitive(pid, s);
  kernel.trigger(kick);
  // The guard trips after exactly 100 delta cycles instead of hanging, and
  // reports it as an error rather than returning as if settled.
  EXPECT_THROW((void)kernel.settle(100), std::runtime_error);
  EXPECT_EQ(kernel.stats().delta_cycles, 1u + 100u);
}

TEST(Kernel, StatsAccumulate) {
  fh::Kernel kernel;
  fh::Signal<int> s(kernel, "s", 0);
  const auto pid = kernel.register_process("p", [&] { (void)s.read(); });
  kernel.make_sensitive(pid, s);
  const auto w = kernel.register_process("w", [&] { s.write(1); });
  kernel.trigger(w);
  kernel.settle();
  const auto& st = kernel.stats();
  EXPECT_GE(st.delta_cycles, 2u);
  EXPECT_GE(st.process_activations, 2u);
  EXPECT_GE(st.signal_updates, 1u);
}

namespace {

class Doubler final : public fh::Module {
 public:
  Doubler(fh::Kernel& kernel, std::string name)
      : Module(kernel, std::move(name)),
        in(kernel, this->name() + ".in", 0.0),
        out(kernel, this->name() + ".out", 0.0) {
    const auto pid = method("double", [this] { out.write(in.read() * 2.0); });
    sensitive(pid, in);
  }

  fh::Signal<double> in;
  fh::Signal<double> out;
};

}  // namespace

TEST(Module, RegistersNamedProcessWithSensitivity) {
  fh::Kernel kernel;
  Doubler mod(kernel, "dbl");
  EXPECT_EQ(mod.name(), "dbl");

  const auto w = kernel.register_process("w", [&] { mod.in.write(21.0); });
  kernel.trigger(w);
  kernel.settle();
  EXPECT_DOUBLE_EQ(mod.out.read(), 42.0);
}
