//===- tests/srv/WireTest.cpp - stird-wire-v1 protocol tests ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire layer in two halves, without a server: framing over a
/// socketpair (round trips, clean EOF vs truncation, the oversized-frame
/// guard) and handleRequest as a pure protocol function (command dispatch,
/// error replies that keep the connection usable, the load/query/stats
/// flows and their reply schemas).
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "srv/Session.h"
#include "srv/Wire.h"

#include "../obs/MetricsTestSupport.h"

#include <gtest/gtest.h>

#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stird;
using namespace stird::srv;
using obs::json::Value;

namespace {

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    for (int Fd : Fds)
      if (Fd >= 0)
        ::close(Fd);
  }
  void closeWriter() {
    ::close(Fds[0]);
    Fds[0] = -1;
  }
};

TEST(WireFramingTest, RoundTripsPayloads) {
  SocketPair S;
  // A frame larger than the socket buffer forces both sides to loop over
  // partial reads/writes, so the writer runs on its own thread.
  for (const std::string &Payload :
       {std::string(""), std::string("{\"cmd\":\"stats\"}"),
        std::string(1 << 20, 'x')}) {
    std::thread Writer(
        [&] { EXPECT_TRUE(writeFrame(S.Fds[0], Payload)); });
    std::string Read;
    ASSERT_TRUE(readFrame(S.Fds[1], Read));
    Writer.join();
    EXPECT_EQ(Read, Payload);
  }
}

TEST(WireFramingTest, BackToBackFramesStayAligned) {
  SocketPair S;
  ASSERT_TRUE(writeFrame(S.Fds[0], "first"));
  ASSERT_TRUE(writeFrame(S.Fds[0], ""));
  ASSERT_TRUE(writeFrame(S.Fds[0], "third"));
  std::string Read;
  ASSERT_TRUE(readFrame(S.Fds[1], Read));
  EXPECT_EQ(Read, "first");
  ASSERT_TRUE(readFrame(S.Fds[1], Read));
  EXPECT_EQ(Read, "");
  ASSERT_TRUE(readFrame(S.Fds[1], Read));
  EXPECT_EQ(Read, "third");
}

TEST(WireFramingTest, CleanEofIsNotAnError) {
  SocketPair S;
  S.closeWriter();
  std::string Read, Error = "sentinel";
  EXPECT_FALSE(readFrame(S.Fds[1], Read, &Error));
  EXPECT_EQ(Error, "") << "EOF at a frame boundary must report no error";
}

TEST(WireFramingTest, TruncatedHeaderAndPayloadAreErrors) {
  {
    SocketPair S;
    const char Partial[2] = {0, 0};
    ASSERT_EQ(::write(S.Fds[0], Partial, 2), 2);
    S.closeWriter();
    std::string Read, Error;
    EXPECT_FALSE(readFrame(S.Fds[1], Read, &Error));
    EXPECT_NE(Error.find("truncated frame header"), std::string::npos);
  }
  {
    SocketPair S;
    const unsigned char Header[4] = {0, 0, 0, 10}; // promises 10 bytes
    ASSERT_EQ(::write(S.Fds[0], Header, 4), 4);
    ASSERT_EQ(::write(S.Fds[0], "abc", 3), 3);
    S.closeWriter();
    std::string Read, Error;
    EXPECT_FALSE(readFrame(S.Fds[1], Read, &Error));
    EXPECT_NE(Error.find("truncated frame payload"), std::string::npos);
  }
}

TEST(WireFramingTest, OversizedFrameIsRejected) {
  SocketPair S;
  const unsigned char Header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(S.Fds[0], Header, 4), 4);
  std::string Read, Error;
  EXPECT_FALSE(readFrame(S.Fds[1], Read, &Error));
  EXPECT_NE(Error.find("exceeds"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// FrameDecoder
//===----------------------------------------------------------------------===//

TEST(FrameDecoderTest, ReassemblesFramesFedByteByByte) {
  FrameDecoder Decoder(MaxFrameBytes);
  const std::string Wire =
      encodeFrame("first") + encodeFrame("") + encodeFrame("third");
  std::vector<std::string> Frames;
  for (char Byte : Wire) {
    Decoder.feed(&Byte, 1);
    std::string Payload;
    while (Decoder.next(Payload) == FrameDecoder::Result::Frame)
      Frames.push_back(Payload);
  }
  ASSERT_EQ(Frames, (std::vector<std::string>{"first", "", "third"}));
  EXPECT_EQ(Decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, DrainsMultipleFramesFromOneFeed) {
  FrameDecoder Decoder(MaxFrameBytes);
  const std::string Wire = encodeFrame("a") + encodeFrame("bb");
  Decoder.feed(Wire.data(), Wire.size());
  std::string Payload;
  ASSERT_EQ(Decoder.next(Payload), FrameDecoder::Result::Frame);
  EXPECT_EQ(Payload, "a");
  ASSERT_EQ(Decoder.next(Payload), FrameDecoder::Result::Frame);
  EXPECT_EQ(Payload, "bb");
  EXPECT_EQ(Decoder.next(Payload), FrameDecoder::Result::NeedMore);
}

TEST(FrameDecoderTest, TruncatedFrameStaysNeedMore) {
  FrameDecoder Decoder(MaxFrameBytes);
  const std::string Wire = encodeFrame("0123456789");
  Decoder.feed(Wire.data(), Wire.size() - 3);
  std::string Payload;
  EXPECT_EQ(Decoder.next(Payload), FrameDecoder::Result::NeedMore);
  Decoder.feed(Wire.data() + Wire.size() - 3, 3);
  ASSERT_EQ(Decoder.next(Payload), FrameDecoder::Result::Frame);
  EXPECT_EQ(Payload, "0123456789");
}

TEST(FrameDecoderTest, OversizedLengthPoisonsWithoutAllocating) {
  // 0xFFFFFFFF would be a 4 GiB allocation if the guard ran after the
  // resize; the decoder must reject on the prefix alone and stay poisoned.
  FrameDecoder Decoder(MaxFrameBytes);
  const unsigned char Header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  Decoder.feed(reinterpret_cast<const char *>(Header), 4);
  std::string Payload, Error;
  EXPECT_EQ(Decoder.next(Payload, &Error), FrameDecoder::Result::Error);
  EXPECT_NE(Error.find("exceeds"), std::string::npos);
  EXPECT_TRUE(Decoder.poisoned());
  // Further bytes are discarded, further next() calls keep erroring.
  const std::string More = encodeFrame("valid");
  Decoder.feed(More.data(), More.size());
  EXPECT_EQ(Decoder.buffered(), 0u);
  EXPECT_EQ(Decoder.next(Payload), FrameDecoder::Result::Error);
}

TEST(FrameDecoderTest, NegativeAsSignedLengthIsRejected) {
  FrameDecoder Decoder(MaxFrameBytes);
  const unsigned char Header[4] = {0x80, 0x00, 0x00, 0x01}; // -2^31+1 signed
  Decoder.feed(reinterpret_cast<const char *>(Header), 4);
  std::string Payload, Error;
  EXPECT_EQ(Decoder.next(Payload, &Error), FrameDecoder::Result::Error);
  EXPECT_TRUE(Decoder.poisoned());
}

TEST(FrameDecoderTest, HonorsACustomLimit) {
  FrameDecoder Decoder(/*MaxBytes=*/8);
  const std::string Small = encodeFrame("12345678");
  Decoder.feed(Small.data(), Small.size());
  std::string Payload;
  ASSERT_EQ(Decoder.next(Payload), FrameDecoder::Result::Frame);
  EXPECT_EQ(Payload, "12345678");

  FrameDecoder Strict(/*MaxBytes=*/8);
  const std::string Big = encodeFrame("123456789");
  Strict.feed(Big.data(), Big.size());
  EXPECT_EQ(Strict.next(Payload), FrameDecoder::Result::Error);
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

constexpr const char *TcSource = R"(
  .decl edge(a:number, b:number)
  .decl path(a:number, b:number)
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
)";

class WireRequestTest : public ::testing::Test {
protected:
  void SetUp() override {
    Session = EngineSession::fromSource(TcSource);
    ASSERT_NE(Session, nullptr);
  }

  /// Dispatches one request and parses the reply document.
  Value reply(const std::string &Payload, bool *Shutdown = nullptr) {
    RequestOutcome Outcome = handleRequest(*Session, Latency, Payload);
    if (Shutdown)
      *Shutdown = Outcome.Shutdown;
    return std::move(Outcome.Reply);
  }

  static bool okOf(const Value &Reply) {
    const Value *Ok = Reply.find("ok");
    return Ok && Ok->isBool() && Ok->asBool();
  }

  static std::string errorOf(const Value &Reply) {
    const Value *Error = Reply.find("error");
    return Error && Error->isString() ? Error->asString() : "";
  }

  std::unique_ptr<EngineSession> Session;
  obs::LatencyAggregator Latency;
};

TEST_F(WireRequestTest, MalformedRequestsYieldErrorReplies) {
  EXPECT_NE(errorOf(reply("{not json")).find("malformed request"),
            std::string::npos);
  EXPECT_NE(errorOf(reply("[1,2]")).find("must be a JSON object"),
            std::string::npos);
  EXPECT_NE(errorOf(reply("{\"x\":1}")).find("\"cmd\" string"),
            std::string::npos);
  EXPECT_NE(errorOf(reply("{\"cmd\":\"frobnicate\"}"))
                .find("unknown command 'frobnicate'"),
            std::string::npos);
  // Every reply, error or not, carries the handling time.
  const Value R = reply("{bad");
  ASSERT_NE(R.find("micros"), nullptr);
}

TEST_F(WireRequestTest, LoadDerivesAndReportsCounts) {
  const Value R = reply(
      R"({"cmd":"load","facts":{"edge":[["1","2"],[2,3],["1","2"]]}})");
  ASSERT_TRUE(okOf(R)) << errorOf(R);
  EXPECT_EQ(R.find("inserted")->asNumber(), 2);
  EXPECT_EQ(R.find("duplicates")->asNumber(), 1);
  EXPECT_EQ(R.find("epoch")->asNumber(), 1);
  EXPECT_TRUE(R.find("incremental")->asBool());

  const Value Q = reply(R"({"cmd":"query","relation":"path"})");
  ASSERT_TRUE(okOf(Q)) << errorOf(Q);
  EXPECT_EQ(Q.find("count")->asNumber(), 3);
}

TEST_F(WireRequestTest, RetractCommandRemovesFactsAndDerivations) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2],[2,3],[3,4]]}})");
  const Value R =
      reply(R"({"cmd":"retract","facts":{"edge":[[3,4],[9,9]]}})");
  ASSERT_TRUE(okOf(R)) << errorOf(R);
  EXPECT_EQ(R.find("deleted")->asNumber(), 1);
  EXPECT_EQ(R.find("missing")->asNumber(), 1);
  EXPECT_EQ(R.find("inserted")->asNumber(), 0);
  EXPECT_TRUE(R.find("maintained")->asBool());
  EXPECT_TRUE(R.find("incremental")->asBool());
  EXPECT_EQ(R.find("epoch")->asNumber(), 2);

  // The derived closure shrinks with the retracted edge.
  const Value Q = reply(R"({"cmd":"query","relation":"path"})");
  ASSERT_TRUE(okOf(Q));
  EXPECT_EQ(Q.find("count")->asNumber(), 3);
}

TEST_F(WireRequestTest, LoadAndRetractReportCatchUpTime) {
  // The first write finds both sides current; the second finds the
  // passive side one batch behind and replays it first.
  for (const char *Request :
       {R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]}})",
        R"({"cmd":"retract","facts":{"edge":[[1,2]]}})"}) {
    const Value R = reply(Request);
    ASSERT_TRUE(okOf(R)) << errorOf(R);
    const Value *CatchUp = R.find("catch_up_seconds");
    ASSERT_NE(CatchUp, nullptr) << Request;
    ASSERT_TRUE(CatchUp->isNumber()) << Request;
    EXPECT_GE(CatchUp->asNumber(), 0) << Request;
    EXPECT_LE(CatchUp->asNumber(), R.find("seconds")->asNumber()) << Request;
  }
}

TEST_F(WireRequestTest, LoadAcceptsAMixedRetractBlock) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]}})");
  const Value R = reply(
      R"({"cmd":"load","facts":{"edge":[[3,4]]},"retract":{"edge":[[1,2]]}})");
  ASSERT_TRUE(okOf(R)) << errorOf(R);
  EXPECT_EQ(R.find("inserted")->asNumber(), 1);
  EXPECT_EQ(R.find("deleted")->asNumber(), 1);
  const Value Q = reply(R"({"cmd":"query","relation":"path"})");
  EXPECT_EQ(Q.find("count")->asNumber(), 3); // 2->3, 3->4, 2->4
}

TEST_F(WireRequestTest, RetractValidatesItsTargets) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2]]}})");
  EXPECT_NE(errorOf(reply(R"({"cmd":"retract","facts":{"path":[[1,2]]}})"))
                .find("derived"),
            std::string::npos);
  EXPECT_NE(errorOf(reply(R"({"cmd":"retract"})")).find("\"facts\""),
            std::string::npos);
  // A rejected batch does not advance the epoch.
  const Value S = reply(R"({"cmd":"stats"})");
  EXPECT_EQ(S.find("epoch")->asNumber(), 1);
  // Unknown relations surface as warnings, exactly like load does.
  const Value W = reply(R"({"cmd":"retract","facts":{"nosuch":[[1]]}})");
  ASSERT_TRUE(okOf(W));
  ASSERT_EQ(W.find("warnings")->asArray().size(), 1u);
  EXPECT_NE(W.find("warnings")->asArray()[0].asString().find(
                "unknown relation"),
            std::string::npos);
}

TEST_F(WireRequestTest, LoadReportsMalformedRowsAsWarnings) {
  const Value R = reply(
      R"({"cmd":"load","facts":{"edge":[["1","2"],["x","3"]]}})");
  ASSERT_TRUE(okOf(R));
  EXPECT_EQ(R.find("inserted")->asNumber(), 1);
  const auto &Warnings = R.find("warnings")->asArray();
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_NE(Warnings[0].asString().find("malformed number"),
            std::string::npos);
}

TEST_F(WireRequestTest, LoadRejectsMalformedShapes) {
  EXPECT_NE(errorOf(reply(R"({"cmd":"load"})")).find("\"facts\" object"),
            std::string::npos);
  EXPECT_NE(errorOf(reply(R"({"cmd":"load","facts":{"edge":[[true]]}})"))
                .find("strings or numbers"),
            std::string::npos);
}

TEST_F(WireRequestTest, QueryBindsPatternsAndReportsThePlan) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2],[2,3],[3,4]]}})");
  const Value R =
      reply(R"({"cmd":"query","relation":"path","pattern":[1,null]})");
  ASSERT_TRUE(okOf(R)) << errorOf(R);
  EXPECT_EQ(R.find("count")->asNumber(), 3);
  // Rendered tuples travel as a preserialized fragment; reparse its dump
  // the way a wire client would.
  std::optional<Value> Tuples = obs::json::parse(R.find("tuples")->dump());
  ASSERT_TRUE(Tuples && Tuples->isArray());
  for (const Value &Row : Tuples->asArray())
    EXPECT_EQ(Row.asArray()[0].asString(), "1");
  const Value *Plan = R.find("plan");
  ASSERT_NE(Plan, nullptr);
  EXPECT_GE(Plan->find("prefix_len")->asNumber(), 1);
}

TEST_F(WireRequestTest, QueryValidatesRelationAndPattern) {
  EXPECT_NE(errorOf(reply(R"({"cmd":"query"})")).find("\"relation\""),
            std::string::npos);
  EXPECT_NE(errorOf(reply(R"({"cmd":"query","relation":"nosuch"})"))
                .find("unknown relation 'nosuch'"),
            std::string::npos);
  EXPECT_NE(errorOf(reply(R"({"cmd":"query","relation":"path",
                             "pattern":[1]})"))
                .find("1 columns, expected 2"),
            std::string::npos);
  EXPECT_NE(errorOf(reply(R"({"cmd":"query","relation":"path",
                             "pattern":["x",null]})"))
                .find("pattern column 1"),
            std::string::npos);
}

TEST_F(WireRequestTest, UnknownSymbolsInPatternsMatchNothing) {
  auto Symbolic = EngineSession::fromSource(R"(
    .decl name(x:symbol)
    .decl seen(x:symbol)
    seen(x) :- name(x).
  )");
  ASSERT_NE(Symbolic, nullptr);
  obs::LatencyAggregator Agg;
  handleRequest(*Symbolic, Agg, R"({"cmd":"load","facts":{"name":[["a"]]}})");
  const std::size_t InternedBefore = Symbolic->symbols().size();

  RequestOutcome Outcome = handleRequest(
      *Symbolic, Agg,
      R"({"cmd":"query","relation":"seen","pattern":["never-interned"]})");
  ASSERT_TRUE(okOf(Outcome.Reply));
  EXPECT_EQ(Outcome.Reply.find("count")->asNumber(), 0);
  // The read-only miss must not grow the shared symbol table.
  EXPECT_EQ(Symbolic->symbols().size(), InternedBefore);
}

TEST_F(WireRequestTest, StatsReportsProtocolRelationsAndLatency) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2]]}})");
  reply(R"({"cmd":"query","relation":"path"})");
  const Value R = reply(R"({"cmd":"stats"})");
  ASSERT_TRUE(okOf(R));
  EXPECT_EQ(R.find("protocol")->asString(), WireProtocolVersion);
  EXPECT_EQ(R.find("epoch")->asNumber(), 1);

  const auto &Relations = R.find("relations")->asArray();
  ASSERT_EQ(Relations.size(), 2u) << "declared relations only, no aux";
  EXPECT_EQ(Relations[0].find("name")->asString(), "edge");
  EXPECT_EQ(Relations[0].find("size")->asNumber(), 1);
  EXPECT_EQ(Relations[1].find("name")->asString(), "path");
  ASSERT_NE(Relations[1].find("inserts"), nullptr)
      << "RelationStats counters missing from stats reply";

  const Value *LatencyVal = R.find("latency");
  ASSERT_NE(LatencyVal, nullptr);
  EXPECT_EQ(LatencyVal->find("load")->find("count")->asNumber(), 1);
  EXPECT_EQ(LatencyVal->find("query")->find("count")->asNumber(), 1);

  const Value *Maint = R.find("maintenance");
  ASSERT_NE(Maint, nullptr);
  EXPECT_TRUE(Maint->find("enabled")->asBool());
  EXPECT_EQ(Maint->find("batches")->asNumber(), 1);
  EXPECT_EQ(Maint->find("rebuild_fallbacks")->asNumber(), 0);
  ASSERT_NE(Maint->find("fallbacks"), nullptr);
}

TEST_F(WireRequestTest, ShutdownFlagsTheConnection) {
  bool Shutdown = false;
  const Value R = reply(R"({"cmd":"shutdown"})", &Shutdown);
  EXPECT_TRUE(okOf(R));
  EXPECT_TRUE(Shutdown);
  // Non-shutdown commands leave the flag clear.
  Shutdown = true;
  reply(R"({"cmd":"stats"})", &Shutdown);
  EXPECT_FALSE(Shutdown);
}

TEST_F(WireRequestTest, RequestIdsEchoVerbatim) {
  const Value Num = reply(R"({"cmd":"stats","id":42})");
  ASSERT_NE(Num.find("id"), nullptr);
  EXPECT_EQ(Num.find("id")->asNumber(), 42);

  const Value Str = reply(R"({"cmd":"stats","id":"req-7"})");
  ASSERT_NE(Str.find("id"), nullptr);
  EXPECT_EQ(Str.find("id")->asString(), "req-7");

  // Ids ride along on error replies too — a pipelining client must be
  // able to correlate failures.
  const Value Bad = reply(R"({"cmd":"frobnicate","id":9})");
  EXPECT_FALSE(okOf(Bad));
  ASSERT_NE(Bad.find("id"), nullptr);
  EXPECT_EQ(Bad.find("id")->asNumber(), 9);

  // Non-scalar ids are a protocol error (and clearly have no id echo).
  const Value Obj = reply(R"({"cmd":"stats","id":{}})");
  EXPECT_FALSE(okOf(Obj));
  EXPECT_NE(errorOf(Obj).find("\"id\""), std::string::npos);

  // Requests without an id get no id member at all.
  EXPECT_EQ(reply(R"({"cmd":"stats"})").find("id"), nullptr);
}

TEST_F(WireRequestTest, V1EndpointRejectsTenantRouting) {
  const Value R = reply(R"({"cmd":"stats","tenant":"other"})");
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(errorOf(R).find("tenant"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Multi-tenant routing and the query cache
//===----------------------------------------------------------------------===//

class WireTenantTest : public ::testing::Test {
protected:
  void SetUp() override {
    A = EngineSession::fromSource(TcSource);
    B = EngineSession::fromSource(TcSource);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    Tenants.add("default", *A);
    Tenants.add("other", *B);
  }

  Value reply(const std::string &Payload) {
    return handleRequest(Tenants, Payload).Reply;
  }

  static bool okOf(const Value &Reply) {
    const Value *Ok = Reply.find("ok");
    return Ok && Ok->isBool() && Ok->asBool();
  }

  std::unique_ptr<EngineSession> A, B;
  TenantRegistry Tenants;
};

TEST_F(WireTenantTest, RequestsRouteByTenantName) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2]]}})");
  reply(R"({"cmd":"load","tenant":"other","facts":{"edge":[[1,2],[2,3]]}})");
  EXPECT_EQ(A->epoch(), 1u);
  EXPECT_EQ(B->epoch(), 1u);

  const Value Qa = reply(R"({"cmd":"query","relation":"path"})");
  const Value Qb =
      reply(R"({"cmd":"query","tenant":"other","relation":"path"})");
  ASSERT_TRUE(okOf(Qa));
  ASSERT_TRUE(okOf(Qb));
  EXPECT_EQ(Qa.find("count")->asNumber(), 1);
  EXPECT_EQ(Qb.find("count")->asNumber(), 3);

  const Value Unknown = reply(R"({"cmd":"stats","tenant":"nosuch"})");
  EXPECT_FALSE(okOf(Unknown));
  EXPECT_NE(Unknown.find("error")->asString().find("unknown tenant"),
            std::string::npos);
}

TEST_F(WireTenantTest, StatsReportTenantsAndPerTenantCaches) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2]]}})");
  reply(R"({"cmd":"query","relation":"path","pattern":[1,null]})");
  reply(R"({"cmd":"query","relation":"path","pattern":[1,null]})");

  const Value R = reply(R"({"cmd":"stats"})");
  ASSERT_TRUE(okOf(R));
  EXPECT_EQ(R.find("tenant")->asString(), "default");
  const auto &Names = R.find("tenants")->asArray();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0].asString(), "default");
  EXPECT_EQ(Names[1].asString(), "other");
  const Value *Cache = R.find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->find("hits")->asNumber(), 1);
  EXPECT_EQ(Cache->find("misses")->asNumber(), 1);

  // The other tenant's cache saw none of it.
  const Value Rb = reply(R"({"cmd":"stats","tenant":"other"})");
  EXPECT_EQ(Rb.find("cache")->find("hits")->asNumber(), 0);
  EXPECT_EQ(Rb.find("cache")->find("misses")->asNumber(), 0);
}

TEST_F(WireTenantTest, RepeatedQueriesHitTheCacheWithIdenticalReplies) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]}})");
  const std::string Q =
      R"({"cmd":"query","relation":"path","pattern":[1,null]})";
  Value Cold = reply(Q);
  Value Warm = reply(Q);
  ASSERT_TRUE(okOf(Cold));
  ASSERT_TRUE(okOf(Warm));
  EXPECT_FALSE(Cold.find("cached")->asBool());
  EXPECT_TRUE(Warm.find("cached")->asBool());
  // Identical payloads modulo the cache flag and timing.
  for (const char *Member : {"tuples", "count", "epoch", "plan"}) {
    ASSERT_NE(Cold.find(Member), nullptr) << Member;
    ASSERT_NE(Warm.find(Member), nullptr) << Member;
    EXPECT_EQ(Cold.find(Member)->dump(), Warm.find(Member)->dump())
        << Member;
  }
}

TEST_F(WireRequestTest, V1EndpointRejectsTheMetricsCommand) {
  const Value R = reply(R"({"cmd":"metrics"})");
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(errorOf(R).find("metrics"), std::string::npos);
}

TEST_F(WireTenantTest, MetricsCommandDeliversTheExpositionInBand) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2]]}})");
  reply(R"({"cmd":"query","relation":"path","pattern":[1,null]})");

  const Value R = reply(R"({"cmd":"metrics","id":9})");
  ASSERT_TRUE(okOf(R)) << R.dump();
  EXPECT_EQ(R.find("id")->asNumber(), 9);
  const Value *Text = R.find("metrics");
  ASSERT_NE(Text, nullptr);
  ASSERT_TRUE(Text->isString());
  // The in-band document is the same exposition the HTTP endpoint serves:
  // well-formed 0.0.4 text with the tenant and latency families.
  EXPECT_EQ(obs::prom::validatePrometheusText(Text->asString()), "")
      << Text->asString();
  EXPECT_NE(Text->asString().find("stird_tenant_epoch{tenant=\"default\"}"),
            std::string::npos);
  EXPECT_NE(Text->asString().find("stird_request_latency_micros_bucket"),
            std::string::npos);
}

TEST_F(WireTenantTest, StatsCarryTelemetryMembersWhenAttached) {
  // Without an attached front end there is no "server"/"trace" member.
  EXPECT_EQ(reply(R"({"cmd":"stats"})").find("server"), nullptr);
  EXPECT_EQ(reply(R"({"cmd":"stats"})").find("trace"), nullptr);

  ServeTelemetry Telemetry;
  Tenants.Telemetry = &Telemetry;
  const Value R = reply(R"({"cmd":"stats"})");
  ASSERT_TRUE(okOf(R));
  const Value *Server = R.find("server");
  ASSERT_NE(Server, nullptr);
  EXPECT_NE(Server->find("requests_dispatched"), nullptr);
  EXPECT_NE(Server->find("metrics_scrapes"), nullptr);
  const Value *Trace = R.find("trace");
  ASSERT_NE(Trace, nullptr);
  for (const char *Member :
       {"started", "sampled", "retained", "slow", "sample_every", "recent"})
    EXPECT_NE(Trace->find(Member), nullptr) << Member;
  Tenants.Telemetry = nullptr;
}

TEST_F(WireTenantTest, SnapshotPublishInvalidatesTheCache) {
  reply(R"({"cmd":"load","facts":{"edge":[[1,2]]}})");
  const std::string Q =
      R"({"cmd":"query","relation":"path","pattern":[1,null]})";
  reply(Q); // populate
  EXPECT_TRUE(reply(Q).find("cached")->asBool());

  // New batch -> new epoch -> the stale entry must not serve.
  reply(R"({"cmd":"load","facts":{"edge":[[2,3]]}})");
  const Value Fresh = reply(Q);
  EXPECT_FALSE(Fresh.find("cached")->asBool());
  EXPECT_EQ(Fresh.find("count")->asNumber(), 2)
      << "invalidated cache must re-run against the new snapshot";
  EXPECT_TRUE(reply(Q).find("cached")->asBool());
}

} // namespace
