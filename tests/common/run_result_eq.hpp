// Field-by-field RunResult identity, shared by the engine determinism
// suites (windowed lane counts, sink and engine equivalence).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/result.hpp"

namespace bftsim {

/// Full bit-identity check between two runs: termination, every counter,
/// every decision / view record, and the trace fingerprint. Field-by-field
/// so a regression names what moved.
inline void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.termination_time, b.termination_time);
  EXPECT_EQ(a.termination_reason, b.termination_reason);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_injected, b.messages_injected);
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.timers_fired, b.timers_fired);
  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.honest, b.honest);
  EXPECT_EQ(a.failstopped, b.failstopped);
  EXPECT_EQ(a.corrupted, b.corrupted);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].node, b.decisions[i].node) << "decision " << i;
    EXPECT_EQ(a.decisions[i].at, b.decisions[i].at) << "decision " << i;
    EXPECT_EQ(a.decisions[i].height, b.decisions[i].height) << "decision " << i;
    EXPECT_EQ(a.decisions[i].value, b.decisions[i].value) << "decision " << i;
  }
  ASSERT_EQ(a.views.size(), b.views.size());
  for (std::size_t i = 0; i < a.views.size(); ++i) {
    EXPECT_EQ(a.views[i].node, b.views[i].node) << "view " << i;
    EXPECT_EQ(a.views[i].at, b.views[i].at) << "view " << i;
    EXPECT_EQ(a.views[i].view, b.views[i].view) << "view " << i;
  }
}

}  // namespace bftsim
