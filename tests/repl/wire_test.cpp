// Wire protocol: every message kind roundtrips byte-exactly, and any
// malformed frame is rejected (never thrown on, never misparsed) — the
// session layer treats a decode failure as peer death.
#include "repl/wire.hpp"

#include <gtest/gtest.h>

#include <string>

namespace sdl::repl {
namespace {

TEST(ReplWireTest, HelloRoundtrip) {
  HelloMsg in;
  in.node_id = 42;
  in.last_applied = 123456789;
  const std::string frame = encode_hello(in);
  Message out;
  ASSERT_TRUE(decode_message(frame, &out));
  EXPECT_EQ(out.kind, MsgKind::Hello);
  EXPECT_EQ(out.hello.node_id, 42u);
  EXPECT_EQ(out.hello.last_applied, 123456789u);
}

TEST(ReplWireTest, SnapshotRoundtripPreservesRawBytes) {
  SnapshotMsg in;
  static constexpr char kBytes[] = "\x00\x01\xff binary \n payload";
  in.file_bytes = std::string(kBytes, sizeof kBytes - 1);  // keeps the NUL
  const std::string frame = encode_snapshot(in);
  Message out;
  ASSERT_TRUE(decode_message(frame, &out));
  EXPECT_EQ(out.kind, MsgKind::Snapshot);
  EXPECT_EQ(out.snapshot.file_bytes, in.file_bytes);
}

TEST(ReplWireTest, BatchRoundtrip) {
  BatchMsg in;
  in.first_seq = 7;
  in.last_seq = 19;
  in.frames = std::string(1024, '\xAB');
  const std::string frame = encode_batch(in);
  Message out;
  ASSERT_TRUE(decode_message(frame, &out));
  EXPECT_EQ(out.kind, MsgKind::Batch);
  EXPECT_EQ(out.batch.first_seq, 7u);
  EXPECT_EQ(out.batch.last_seq, 19u);
  EXPECT_EQ(out.batch.frames, in.frames);
}

TEST(ReplWireTest, AckRoundtrip) {
  AckMsg in;
  in.applied_seq = 99;
  in.applied_bytes = 1ull << 40;
  const std::string frame = encode_ack(in);
  Message out;
  ASSERT_TRUE(decode_message(frame, &out));
  EXPECT_EQ(out.kind, MsgKind::Ack);
  EXPECT_EQ(out.ack.applied_seq, 99u);
  EXPECT_EQ(out.ack.applied_bytes, 1ull << 40);
}

TEST(ReplWireTest, RejectsEmptyUnknownKindAndTrailingBytes) {
  Message out;
  EXPECT_FALSE(decode_message("", &out));
  EXPECT_FALSE(decode_message(std::string("\x09", 1), &out));  // unknown kind
  std::string frame = encode_ack({5, 6});
  frame.push_back('x');  // trailing garbage
  EXPECT_FALSE(decode_message(frame, &out));
}

TEST(ReplWireTest, RejectsTruncation) {
  const std::string frame = encode_batch({1, 2, "some frames"});
  Message out;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_message(std::string_view(frame).substr(0, len), &out))
        << "truncated at " << len;
  }
  EXPECT_TRUE(decode_message(frame, &out));
}

}  // namespace
}  // namespace sdl::repl
