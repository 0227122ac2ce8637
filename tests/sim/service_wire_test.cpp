// Campaign-service wire protocol tests: the one grammar's two dialects
// through the one query parser and the one answer parser — encode/parse
// round trips, literal byte pins of every encoder, malformed-input
// rejection with diagnostics (strict numeric fields included), query-id
// hygiene (ids become file names — no traversal, no separators), exact
// %.17g IPC round-tripping, the ServiceClient's atomic submit / poll
// behaviour and which dialects each poll accepts, and a seeded fuzz.
#include "sim/service/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"

namespace snug::sim::service {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  fs::path dir;
};

/// parse_query for rejection checks (the dialect is not needed).
bool parse_q(const std::string& text, std::string& error) {
  ServiceBatchQuery out;
  WireDialect dialect{};
  return parse_query(text, out, dialect, error);
}

/// parse_answer for rejection checks.
bool parse_a(const std::string& text, std::string& error) {
  ServiceBatchAnswer out;
  WireDialect dialect{};
  return parse_answer(text, out, dialect, error);
}

TEST(ServiceWire, QueryRoundTrips) {
  ServiceQuery q;
  q.id = "client-1.query_07";
  q.scenario_text = "cores=4 workload=gzip+mesa+gzip+mesa";
  q.scheme_id = "CC(50%)";
  ServiceBatchQuery back;
  WireDialect dialect = WireDialect::kV2;
  std::string error;
  ASSERT_TRUE(parse_query(encode_query(q), back, dialect, error)) << error;
  EXPECT_EQ(dialect, WireDialect::kV1);
  EXPECT_EQ(back.id, q.id);
  ASSERT_EQ(back.items.size(), 1u) << "a v1 query is a one-item batch";
  EXPECT_EQ(back.items[0].scenario_text, q.scenario_text);
  EXPECT_EQ(back.items[0].scheme_id, q.scheme_id);
}

TEST(ServiceWire, QueryParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_q("", error));
  EXPECT_FALSE(parse_q("not-a-query\nid=a", error));
  EXPECT_EQ(error, "query does not start with 'query-v1'")
      << "the pre-batch wording: a rejected file's answer is unchanged";
  EXPECT_FALSE(parse_q("query-v1\nid=a\nscheme=SNUG", error))
      << "missing scenario must be rejected";
  EXPECT_NE(error.find("scenario"), std::string::npos) << error;
  EXPECT_FALSE(parse_q(
      "query-v1\nid=a\nscenario=cores=4\nscheme=SNUG\nbogus=1", error));
  EXPECT_FALSE(parse_q(
      "query-v1\nid=../../etc\nscenario=cores=4\nscheme=SNUG", error))
      << "a traversal id must be rejected at parse";
  EXPECT_FALSE(parse_q(
      "query-v1\nid=a\nscenario=cores=4\nscheme=SNUG\nquery=SNUG|cores=4",
      error))
      << "a v2 key under the v1 magic must be rejected";
  EXPECT_EQ(error, "unknown query key 'query'");
}

TEST(ServiceWire, V1QueriesKeepTheirAcceptanceRules) {
  ServiceBatchQuery q;
  WireDialect dialect = WireDialect::kV2;
  std::string error;
  // An empty scenario (or scheme) is accepted at parse — the server
  // answers it with a per-part diagnostic — and the last duplicate key
  // wins; blank lines may precede the magic.
  ASSERT_TRUE(parse_query("\nquery-v1\nid=a\nscenario=\nscheme=SNUG\n"
                          "scheme=DSR\nid=b\n",
                          q, dialect, error))
      << error;
  EXPECT_EQ(dialect, WireDialect::kV1);
  EXPECT_EQ(q.id, "b");
  ASSERT_EQ(q.items.size(), 1u);
  EXPECT_EQ(q.items[0].scenario_text, "");
  EXPECT_EQ(q.items[0].scheme_id, "DSR");
  // A '|' is ordinary text in a v1 scenario.
  ASSERT_TRUE(parse_query("query-v1\nid=a\nscenario=x|y\nscheme=\n", q,
                          dialect, error))
      << error;
  EXPECT_EQ(q.items[0].scenario_text, "x|y");
  EXPECT_EQ(q.items[0].scheme_id, "");
}

TEST(ServiceWire, QueryIdsAreFileNameSafe) {
  EXPECT_TRUE(valid_query_id("abc-123_X.Y"));
  EXPECT_FALSE(valid_query_id(""));
  EXPECT_FALSE(valid_query_id("a/b"));
  EXPECT_FALSE(valid_query_id("../up"));
  EXPECT_FALSE(valid_query_id("sp ace"));
  EXPECT_FALSE(valid_query_id("semi;colon"));
  EXPECT_FALSE(valid_query_id(std::string(129, 'a')));
  EXPECT_TRUE(valid_query_id(std::string(128, 'a')));
}

TEST(ServiceWire, AnswerRoundTripsIpcDoublesExactly) {
  ServiceAnswer a;
  a.id = "q1";
  a.status = AnswerStatus::kOk;
  // Values chosen to lose bits under anything less than %.17g.
  a.cells.push_back({"mixA", {1.0 / 3.0, 0.1234567890123456789, 2.0}});
  a.cells.push_back({"mixB", {1e-300, 3.0000000000000004}});
  ServiceBatchAnswer parsed;
  WireDialect dialect = WireDialect::kV2;
  std::string error;
  ASSERT_TRUE(parse_answer(encode_answer(a), parsed, dialect, error))
      << error;
  EXPECT_EQ(dialect, WireDialect::kV1);
  ASSERT_EQ(parsed.parts.size(), 1u) << "a v1 answer is one part";
  const ServiceAnswer back = single_answer(parsed);
  EXPECT_EQ(back.id, a.id);
  EXPECT_EQ(back.status, AnswerStatus::kOk);
  ASSERT_EQ(back.cells.size(), 2u);
  EXPECT_EQ(back.cells[0].combo, "mixA");
  EXPECT_EQ(back.cells[1].combo, "mixB");
  // Bit-exact, not approximately equal: the chaos soak byte-diffs
  // resumed answers against a clean run's.
  EXPECT_EQ(back.cells[0].ipc, a.cells[0].ipc);
  EXPECT_EQ(back.cells[1].ipc, a.cells[1].ipc);
  // And the re-encoding is byte-identical.
  EXPECT_EQ(encode_answer(back), encode_answer(a));
}

TEST(ServiceWire, AnswerCarriesStatusErrorAndRetryAfter) {
  ServiceAnswer err;
  err.id = "q2";
  err.status = AnswerStatus::kError;
  err.error = "mixA/SNUG: gave up after 3 attempts";
  ServiceBatchAnswer back;
  WireDialect dialect = WireDialect::kV2;
  std::string diag;
  ASSERT_TRUE(parse_answer(encode_answer(err), back, dialect, diag)) << diag;
  ASSERT_EQ(back.parts.size(), 1u);
  EXPECT_EQ(back.parts[0].status, AnswerStatus::kError);
  EXPECT_EQ(back.parts[0].error, err.error);

  ServiceAnswer shed;
  shed.id = "q3";
  shed.status = AnswerStatus::kRetryAfter;
  shed.retry_after_ms = 250;
  ASSERT_TRUE(parse_answer(encode_answer(shed), back, dialect, diag))
      << diag;
  ASSERT_EQ(back.parts.size(), 1u);
  EXPECT_EQ(back.parts[0].status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(back.parts[0].retry_after_ms, 250u);
  // A v1 status may omit its payload.
  ASSERT_TRUE(parse_answer("answer-v1\nid=a\nstatus=error\n", back,
                           dialect, diag))
      << diag;
  EXPECT_EQ(back.parts[0].error, "");
}

TEST(ServiceWire, AnswerParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_a("", error));
  EXPECT_FALSE(parse_a("answer-v3\nid=a\nstatus=ok", error));
  EXPECT_FALSE(parse_a("answer-v1\nid=a", error))
      << "missing status must be rejected";
  EXPECT_FALSE(parse_a("answer-v1\nid=a\nstatus=maybe", error));
  EXPECT_FALSE(
      parse_a("answer-v1\nid=a\nstatus=ok\ncell=mixA ipc=1.0,nope", error));
  EXPECT_FALSE(
      parse_a("answer-v1\nid=a\nstatus=ok\ncell=mixA-no-ipc-field", error));
  EXPECT_FALSE(parse_a("answer-v1\nid=a\nstatus=ok\nerror=boom", error))
      << "a payload the status does not carry must be rejected";
  EXPECT_FALSE(parse_a(
      "answer-v1\nid=a\nretry-after-ms=5\nstatus=error\nerror=x", error));
  EXPECT_FALSE(parse_a("answer-v1\nid=a\nstatus=ok\nparts=1", error))
      << "a v2 key under the v1 magic must be rejected";
  // retry-after-ms is a non-empty run of digits that fits in 64 bits:
  // no empty value read as 0, no sign, no whitespace, no wrap-around.
  for (const char* bad : {"", "-5", " 7", "+7", "7 ", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_a(std::string("answer-v1\nid=a\nstatus=retry-after"
                                     "\nretry-after-ms=") +
                             bad,
                         error))
        << "retry-after-ms='" << bad << "'";
    EXPECT_NE(error.find("retry-after-ms"), std::string::npos) << error;
  }
  EXPECT_TRUE(parse_a("answer-v1\nid=a\nstatus=retry-after\n"
                      "retry-after-ms=18446744073709551615",
                      error))
      << error;
}

// ---- literal byte pins ---------------------------------------------------
//
// Hand-written wire texts, the way EvalCache.StoreWritesTheHandBuiltV4Layout
// pins the cache layout: a round trip through encode/parse cannot see the
// encoder itself drift, these can.  %.17g of 1/3 is 0.33333333333333331,
// of 0.1 is 0.10000000000000001, of sqrt(0.5) is 0.70710678118654757.

TEST(ServiceWirePins, QueryEncodersWriteTheLiteralBytes) {
  EXPECT_EQ(encode_query({"client-1.q_07", "cores=4 workload=paper",
                          "CC(50%)"}),
            "query-v1\n"
            "id=client-1.q_07\n"
            "scenario=cores=4 workload=paper\n"
            "scheme=CC(50%)\n");
  const ServiceBatchQuery batch{
      "sweep-01",
      {{"cores=4 workload=gzip+mesa+gzip+mesa", "SNUG"},
       {"cores=8 workload=paper", "CC(50%)"}}};
  EXPECT_EQ(encode_batch_query(batch),
            "query-v2\n"
            "id=sweep-01\n"
            "query=SNUG|cores=4 workload=gzip+mesa+gzip+mesa\n"
            "query=CC(50%)|cores=8 workload=paper\n");
}

TEST(ServiceWirePins, ClientSubmitsPublishTheLiteralBytes) {
  TempDir tmp("snug_service_wire_submit_pin");
  const std::string root = tmp.dir.string();
  ServiceClient client(root);
  const auto file_text = [&](const std::string& id) {
    std::ifstream in(query_path(root, id), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string error;
  ASSERT_TRUE(client.submit({"v1", "cores=4", "SNUG"}, &error)) << error;
  EXPECT_EQ(file_text("v1"),
            "query-v1\nid=v1\nscenario=cores=4\nscheme=SNUG\n");
  ASSERT_TRUE(client.submit_batch(
      {"v2", {{"cores=4", "SNUG"}, {"cores=8", "DSR"}}}, &error))
      << error;
  EXPECT_EQ(file_text("v2"),
            "query-v2\nid=v2\nquery=SNUG|cores=4\nquery=DSR|cores=8\n");
}

TEST(ServiceWirePins, AnswerV1EncoderWritesTheLiteralBytes) {
  ServiceAnswer ok;
  ok.id = "q1";
  ok.cells.push_back({"mixA", {1.0 / 3.0, 0.1, 2.0}});
  ok.cells.push_back({"mixB", {1e-300, 3.0000000000000004}});
  EXPECT_EQ(encode_answer(ok),
            "answer-v1\n"
            "id=q1\n"
            "status=ok\n"
            "cell=mixA ipc=0.33333333333333331,0.10000000000000001,2\n"
            "cell=mixB ipc=1e-300,3.0000000000000004\n");

  ServiceAnswer err;
  err.id = "q2";
  err.status = AnswerStatus::kError;
  err.error = "mixA/SNUG: poisoned after 3 lease grants";
  err.cells.push_back({"mixB", {0.70710678118654757}});
  EXPECT_EQ(encode_answer(err),
            "answer-v1\n"
            "id=q2\n"
            "status=error\n"
            "error=mixA/SNUG: poisoned after 3 lease grants\n"
            "cell=mixB ipc=0.70710678118654757\n");

  ServiceAnswer shed;
  shed.id = "q3";
  shed.status = AnswerStatus::kRetryAfter;
  shed.retry_after_ms = 250;
  EXPECT_EQ(encode_answer(shed),
            "answer-v1\n"
            "id=q3\n"
            "status=retry-after\n"
            "retry-after-ms=250\n");
}

TEST(ServiceWirePins, AnswerV2EncoderWritesTheLiteralBytes) {
  ServiceBatchAnswer a;
  a.id = "sweep-02";
  a.parts.resize(4);
  a.parts[0].cells.push_back({"mixA", {1.0 / 3.0, 0.1}});
  a.parts[0].cells.push_back({"mixB", {1e-300}});
  a.parts[1].status = AnswerStatus::kError;
  a.parts[1].error = "unknown scheme 'WAT'";
  a.parts[2].status = AnswerStatus::kRetryAfter;
  a.parts[2].retry_after_ms = 250;
  a.parts[3].status = AnswerStatus::kError;
  a.parts[3].error = "mixD/SNUG: poisoned";
  a.parts[3].cells.push_back({"mixC", {3.0000000000000004, 2.0}});
  EXPECT_EQ(encode_batch_answer(a),
            "answer-v2\n"
            "id=sweep-02\n"
            "parts=4\n"
            "part=0 status=ok\n"
            "part=1 status=error error=unknown scheme 'WAT'\n"
            "part=2 status=retry-after retry-after-ms=250\n"
            "part=3 status=error error=mixD/SNUG: poisoned\n"
            "cell=0/mixA ipc=0.33333333333333331,0.10000000000000001\n"
            "cell=0/mixB ipc=1e-300\n"
            "cell=3/mixC ipc=3.0000000000000004,2\n");
}

TEST(ServiceClientTest, SubmitPublishesAtomicallyAndPollsAnswers) {
  TempDir tmp("snug_service_wire_client");
  const std::string root = tmp.dir.string();
  ServiceClient client(root);

  ServiceQuery q;
  q.id = "q1";
  q.scenario_text = "cores=4";
  q.scheme_id = "SNUG";
  std::string error;
  ASSERT_TRUE(client.submit(q, &error)) << error;
  // The query file is fully published (no temp residue) and parses.
  EXPECT_TRUE(fs::exists(query_path(root, "q1")));
  for (const auto& e : fs::directory_iterator(submit_dir(root))) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."),
              std::string::npos);
  }

  ServiceAnswer polled;
  EXPECT_FALSE(client.try_poll("q1", polled)) << "no answer yet";

  ServiceAnswer a;
  a.id = "q1";
  a.cells.push_back({"mixA", {1.5, 2.5}});
  std::ofstream(answer_path(root, "q1"), std::ios::binary)
      << encode_answer(a);
  ASSERT_TRUE(client.try_poll("q1", polled));
  EXPECT_EQ(polled.status, AnswerStatus::kOk);
  ASSERT_EQ(polled.cells.size(), 1u);
  EXPECT_EQ(polled.cells[0].ipc, a.cells[0].ipc);
  ASSERT_TRUE(client.wait("q1", polled, /*timeout_ms=*/100));
}

TEST(ServiceWire, PublishVerifiedNeverPublishesATornWrite) {
  // Regression pin for the chaos-soak bug: a short-written temp used to
  // be renamed into place as a permanently corrupt answer.  The
  // read-back verify must refuse to publish and clean up the temp.
  TempDir tmp("snug_service_wire_torn_publish");
  const std::string tmp_file = (tmp.dir / "a.tmp").string();
  const std::string final_file = (tmp.dir / "a.final").string();
  const std::string text(512, 'x');

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=9; short-write@write:p=1",
                                      plan, error))
      << error;
  {
    fault::ScopedFaultPlan scoped(plan);
    EXPECT_FALSE(
        publish_verified(fault::env(), tmp_file, final_file, text));
    EXPECT_EQ(scoped.stats().short_writes, 1u);
  }
  EXPECT_FALSE(fs::exists(final_file)) << "torn bytes must not publish";
  EXPECT_FALSE(fs::exists(tmp_file)) << "the torn temp is removed";

  // Fault-free, the same publish lands whole.
  ASSERT_TRUE(publish_verified(fault::env(), tmp_file, final_file, text));
  EXPECT_EQ(fs::file_size(final_file), text.size());
  EXPECT_FALSE(fs::exists(tmp_file));
}

TEST(ServiceClientTest, RejectsBadIdsAndSurfacesUnparseableAnswers) {
  TempDir tmp("snug_service_wire_badid");
  const std::string root = tmp.dir.string();
  ServiceClient client(root);

  ServiceQuery q;
  q.id = "../escape";
  std::string error;
  EXPECT_FALSE(client.submit(q, &error));
  EXPECT_NE(error.find("bad query id"), std::string::npos) << error;

  // A mangled answer file must resolve the poll (status=error), never
  // spin the client forever.
  std::ofstream(answer_path(root, "q9"), std::ios::binary) << "garbage";
  ServiceAnswer out;
  ASSERT_TRUE(client.try_poll("q9", out));
  EXPECT_EQ(out.status, AnswerStatus::kError);
  EXPECT_NE(out.error.find("unparseable answer"), std::string::npos);
}

TEST(ServiceWireBatch, BatchQueryRoundTripsAndDispatches) {
  ServiceBatchQuery q;
  q.id = "sweep-01";
  q.items.push_back({"cores=4 workload=gzip+mesa+gzip+mesa", "SNUG"});
  q.items.push_back({"cores=4 workload=paper", "CC(50%)"});
  q.items.push_back({"cores=8 workload=paper", "PRIV"});
  ServiceBatchQuery back;
  WireDialect dialect = WireDialect::kV1;
  std::string error;
  ASSERT_TRUE(parse_query(encode_batch_query(q), back, dialect, error))
      << error;
  EXPECT_EQ(dialect, WireDialect::kV2);
  EXPECT_EQ(back.id, q.id);
  ASSERT_EQ(back.items.size(), 3u);
  for (std::size_t i = 0; i < back.items.size(); ++i) {
    EXPECT_EQ(back.items[i].scenario_text, q.items[i].scenario_text) << i;
    EXPECT_EQ(back.items[i].scheme_id, q.items[i].scheme_id) << i;
  }
}

TEST(ServiceWireBatch, BatchQueryParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_q("query-v2\nid=a", error))
      << "a batch with no items is malformed";
  EXPECT_FALSE(parse_q("query-v2\nid=a\nquery=no-separator", error))
      << "an item without '|' is malformed";
  EXPECT_NE(error.find("<scheme>|<scenario>"), std::string::npos) << error;
  EXPECT_FALSE(parse_q("query-v2\nid=a\nquery=|cores=4", error))
      << "an empty scheme is malformed";
  EXPECT_FALSE(parse_q("query-v2\nid=a\nquery=SNUG|", error))
      << "an empty scenario is malformed";
  EXPECT_FALSE(parse_q("query-v2\nid=../up\nquery=SNUG|cores=4", error))
      << "a traversal id must be rejected at parse";
  EXPECT_FALSE(parse_q("query-v2\nid=a\nquery=SNUG|cores=4\nbogus=1", error));
  EXPECT_FALSE(parse_q("query-v2\nid=a\nquery=SNUG|cores=4\nscheme=DSR",
                       error))
      << "a v1 key under the v2 magic must be rejected";
  EXPECT_EQ(error, "unknown batch query key 'scheme'");
  // The item cap is enforced at parse, not just at submit.
  std::string huge = "query-v2\nid=a";
  for (std::size_t i = 0; i <= kMaxBatchItems; ++i) {
    huge += "\nquery=SNUG|cores=4";
  }
  EXPECT_FALSE(parse_q(huge, error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(ServiceWireBatch, BatchItemsSplitAtTheFirstBar) {
  BatchItem item;
  ASSERT_TRUE(parse_batch_item("CC(50%)|cores=4 workload=paper", item));
  EXPECT_EQ(item.scheme_id, "CC(50%)");
  EXPECT_EQ(item.scenario_text, "cores=4 workload=paper");
  ASSERT_TRUE(parse_batch_item("SNUG|a|b", item));
  EXPECT_EQ(item.scheme_id, "SNUG");
  EXPECT_EQ(item.scenario_text, "a|b");
  for (const char* bad : {"", "|", "SNUG", "SNUG|", "|cores=4"}) {
    EXPECT_FALSE(parse_batch_item(bad, item)) << "'" << bad << "'";
  }
}

TEST(ServiceWireBatch, BatchAnswerRoundTripsMixedStatusesExactly) {
  ServiceBatchAnswer a;
  a.id = "sweep-02";
  a.parts.resize(4);
  a.parts[0].cells.push_back({"mixA", {1.0 / 3.0, 0.1234567890123456789}});
  a.parts[0].cells.push_back({"mixB", {1e-300}});
  a.parts[1].status = AnswerStatus::kError;
  a.parts[1].error = "unknown scheme 'WAT'";
  a.parts[2].status = AnswerStatus::kRetryAfter;
  a.parts[2].retry_after_ms = 250;
  a.parts[3].cells.push_back({"mixC", {3.0000000000000004}});

  ServiceBatchAnswer back;
  WireDialect dialect = WireDialect::kV1;
  std::string error;
  ASSERT_TRUE(parse_answer(encode_batch_answer(a), back, dialect, error))
      << error;
  EXPECT_EQ(dialect, WireDialect::kV2);
  EXPECT_EQ(back.id, a.id);
  ASSERT_EQ(back.parts.size(), 4u);
  EXPECT_EQ(back.parts[0].status, AnswerStatus::kOk);
  ASSERT_EQ(back.parts[0].cells.size(), 2u);
  // Bit-exact: resumed batch answers are byte-diffed in the chaos soak.
  EXPECT_EQ(back.parts[0].cells[0].ipc, a.parts[0].cells[0].ipc);
  EXPECT_EQ(back.parts[0].cells[1].ipc, a.parts[0].cells[1].ipc);
  EXPECT_EQ(back.parts[1].status, AnswerStatus::kError);
  EXPECT_EQ(back.parts[1].error, a.parts[1].error);
  EXPECT_EQ(back.parts[2].status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(back.parts[2].retry_after_ms, 250u);
  ASSERT_EQ(back.parts[3].cells.size(), 1u);
  EXPECT_EQ(back.parts[3].cells[0].combo, "mixC");
  EXPECT_EQ(encode_batch_answer(back), encode_batch_answer(a));
}

TEST(ServiceWireBatch, BatchAnswerParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_a("answer-v2\nid=a", error))
      << "missing parts= must be rejected";
  EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=0", error));
  EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=2\npart=0 status=ok", error))
      << "a missing part line must be rejected";
  EXPECT_NE(error.find("missing part 1"), std::string::npos) << error;
  EXPECT_FALSE(parse_a(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\npart=0 status=ok",
      error))
      << "a duplicate part line must be rejected";
  EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=1\npart=1 status=ok", error))
      << "an out-of-range part index must be rejected";
  EXPECT_FALSE(
      parse_a("answer-v2\nid=a\nparts=1\npart=0 status=error", error))
      << "status=error without error= must be rejected";
  EXPECT_FALSE(parse_a(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\ncell=0/m ipc=1,bad",
      error));
  EXPECT_FALSE(parse_a(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\ncell=9/m ipc=1.0",
      error))
      << "a cell pointing past parts= must be rejected";
  EXPECT_FALSE(parse_a(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\nstatus=ok", error))
      << "a v1 key under the v2 magic must be rejected";
  // parts=, part=, cell= indices and retry-after-ms are non-empty runs
  // of digits that fit in 64 bits: no sign, no whitespace, no wrap.
  for (const std::string bad : {"", "-1", " 1", "+1", "0x1",
                                "18446744073709551617"}) {
    EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=" + bad +
                             "\npart=0 status=ok",
                         error))
        << "parts='" << bad << "'";
    EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=1\npart=" + bad +
                             " status=ok",
                         error))
        << "part='" << bad << "'";
    EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=1\npart=0 status=ok\n"
                         "cell=" + bad + "/m ipc=1",
                         error))
        << "cell='" << bad << "'";
  }
  for (const std::string bad : {"", "-5", " 7", "+7", "7 ", "0x10",
                                "18446744073709551616"}) {
    EXPECT_FALSE(parse_a("answer-v2\nid=a\nparts=1\npart=0 "
                         "status=retry-after retry-after-ms=" + bad,
                         error))
        << "retry-after-ms='" << bad << "'";
    EXPECT_NE(error.find("retry-after-ms"), std::string::npos) << error;
  }
  EXPECT_TRUE(parse_a("answer-v2\nid=a\nparts=1\npart=0 status=retry-after "
                      "retry-after-ms=18446744073709551615\n",
                      error))
      << error;
}

TEST(ServiceClientTest, BatchSubmitPollsAndFoldsV1Rejections) {
  TempDir tmp("snug_service_wire_batch_client");
  const std::string root = tmp.dir.string();
  ServiceClient client(root);

  ServiceBatchQuery q;
  q.id = "b1";
  q.items.push_back({"cores=4", "SNUG"});
  q.items.push_back({"cores=4", "CC(50%)"});
  std::string error;
  ASSERT_TRUE(client.submit_batch(q, &error)) << error;
  EXPECT_TRUE(fs::exists(query_path(root, "b1")));

  ServiceBatchQuery oversized;
  oversized.id = "b2";
  EXPECT_FALSE(client.submit_batch(oversized, &error))
      << "an empty batch must not submit";
  oversized.items.assign(kMaxBatchItems + 1, {"cores=4", "SNUG"});
  EXPECT_FALSE(client.submit_batch(oversized, &error));

  ServiceBatchAnswer polled;
  EXPECT_FALSE(client.try_poll_batch("b1", polled)) << "no answer yet";

  // A server that rejected the batch wholesale publishes answer-v1
  // status=error; the client folds it into one error part.
  ServiceAnswer v1;
  v1.id = "b1";
  v1.status = AnswerStatus::kError;
  v1.error = "unparseable query";
  std::ofstream(answer_path(root, "b1"), std::ios::binary)
      << encode_answer(v1);
  ASSERT_TRUE(client.try_poll_batch("b1", polled));
  ASSERT_EQ(polled.parts.size(), 1u);
  EXPECT_EQ(polled.parts[0].status, AnswerStatus::kError);
  EXPECT_EQ(polled.parts[0].error, "unparseable query");

  // A real v2 answer parses through, and wait_batch resolves on it.
  ServiceBatchAnswer a;
  a.id = "b1";
  a.parts.resize(2);
  a.parts[0].cells.push_back({"mixA", {1.5}});
  a.parts[1].status = AnswerStatus::kRetryAfter;
  a.parts[1].retry_after_ms = 99;
  std::ofstream(answer_path(root, "b1"),
                std::ios::binary | std::ios::trunc)
      << encode_batch_answer(a);
  ASSERT_TRUE(client.wait_batch("b1", polled, /*timeout_ms=*/100));
  ASSERT_EQ(polled.parts.size(), 2u);
  EXPECT_EQ(polled.parts[0].cells[0].ipc, a.parts[0].cells[0].ipc);
  EXPECT_EQ(polled.parts[1].retry_after_ms, 99u);
}

TEST(ServiceClientTest, EachPollAcceptsItsDialects) {
  TempDir tmp("snug_service_wire_poll_dialects");
  const std::string root = tmp.dir.string();
  ServiceClient client(root);
  const auto publish = [&](const std::string& id, const std::string& text) {
    std::ofstream(answer_path(root, id), std::ios::binary | std::ios::trunc)
        << text;
  };

  // try_poll accepts answer-v1 only: a v2 file is unparseable to it.
  ServiceBatchAnswer batch;
  batch.id = "q1";
  batch.parts.resize(1);
  batch.parts[0].cells.push_back({"mixA", {1.5}});
  publish("q1", encode_batch_answer(batch));
  ServiceAnswer v1;
  ASSERT_TRUE(client.try_poll("q1", v1));
  EXPECT_EQ(v1.status, AnswerStatus::kError);
  EXPECT_EQ(v1.error,
            "unparseable answer: answer does not start with 'answer-v1'");

  // try_poll_batch accepts both: an ok answer-v1 is one part, cells
  // included.
  ServiceAnswer ok;
  ok.id = "q2";
  ok.cells.push_back({"mixB", {0.25, 2.0}});
  publish("q2", encode_answer(ok));
  ServiceBatchAnswer polled;
  ASSERT_TRUE(client.try_poll_batch("q2", polled));
  ASSERT_EQ(polled.parts.size(), 1u);
  EXPECT_EQ(polled.parts[0].status, AnswerStatus::kOk);
  ASSERT_EQ(polled.parts[0].cells.size(), 1u);
  EXPECT_EQ(polled.parts[0].cells[0].ipc, ok.cells[0].ipc);

  // Neither spins on a mangled file.
  publish("q3", "answer-v2\nid=q3\nparts=1\n");
  ASSERT_TRUE(client.try_poll_batch("q3", polled));
  ASSERT_EQ(polled.parts.size(), 1u);
  EXPECT_EQ(polled.parts[0].status, AnswerStatus::kError);
  EXPECT_EQ(polled.parts[0].error,
            "unparseable answer: batch answer is missing part 0");
}

// ---- seeded fuzz over the query and answer parsers ------------------------
//
// Modelled on Scenario.FuzzedSpecsRejectOrRoundTrip: every mutated
// message is either rejected with a non-empty diagnostic, or its parsed
// value re-encodes — in the dialect it was parsed as — and re-parses to
// the same value in the same dialect.

bool same_ipc(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return x == y || (std::isnan(x) && std::isnan(y));
                    });
}

bool same_cells(const std::vector<AnswerCell>& a,
                const std::vector<AnswerCell>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const AnswerCell& x, const AnswerCell& y) {
                      return x.combo == y.combo && same_ipc(x.ipc, y.ipc);
                    });
}

bool same(const ServiceBatchQuery& a, const ServiceBatchQuery& b) {
  return a.id == b.id &&
         std::equal(a.items.begin(), a.items.end(), b.items.begin(),
                    b.items.end(), [](const BatchItem& x, const BatchItem& y) {
                      return x.scenario_text == y.scenario_text &&
                             x.scheme_id == y.scheme_id;
                    });
}

bool same(const ServiceBatchAnswer& a, const ServiceBatchAnswer& b) {
  return a.id == b.id &&
         std::equal(a.parts.begin(), a.parts.end(), b.parts.begin(),
                    b.parts.end(), [](const BatchPart& x, const BatchPart& y) {
                      return x.status == y.status && x.error == y.error &&
                             x.retry_after_ms == y.retry_after_ms &&
                             same_cells(x.cells, y.cells);
                    });
}

/// A parsed message's bytes in the dialect it was parsed as.
std::string encode_in(WireDialect dialect, const ServiceBatchQuery& q) {
  if (dialect == WireDialect::kV2) return encode_batch_query(q);
  return encode_query({q.id, q.items[0].scenario_text, q.items[0].scheme_id});
}

std::string encode_in(WireDialect dialect, const ServiceBatchAnswer& a) {
  return dialect == WireDialect::kV2 ? encode_batch_answer(a)
                                     : encode_answer(single_answer(a));
}

const char* dialect_name(WireDialect dialect) {
  return dialect == WireDialect::kV1 ? "v1" : "v2";
}

/// Mutates messages of `corpus` (all in dialect `home`) 4000 times,
/// splicing in tails of any message of `all`, and checks every verdict
/// of `parse`; both verdicts must be exercised, and acceptance in the
/// home dialect more than 200 times.
template <typename Msg, typename Parse>
void fuzz_rejects_or_round_trips(const char* tag, WireDialect home,
                                 const std::vector<std::string>& corpus,
                                 const std::vector<std::string>& all,
                                 Parse parse) {
  const std::vector<std::string> fragments = {
      "\nid=q1", "\nid=", "\nstatus=ok", "\nstatus=error",
      "\nstatus=retry-after", "\nerror=boom", "\nretry-after-ms=250",
      "\nretry-after-ms=", "\ncell=mixA ipc=1.5", "\ncell=0/mixA ipc=2",
      "\nquery=SNUG|cores=4", "\nscenario=cores=8", "\nscheme=DSR",
      "\nparts=2", "\npart=1 status=ok", "\npart=0 status=error error=x",
      "query-v1", "query-v2", "answer-v1", "answer-v2", " ipc=", "nan",
      "inf", "-0", "1e999", "0x1p3", "4294967296", "18446744073709551616",
      "+", "|", "=", "/", ","};
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzAB0123456789=|/,._- \n()%+";
  Rng rng(Rng::derive_seed(tag));
  const auto pick = [&](const auto& v) -> const auto& {
    return v[rng.below(v.size())];
  };
  std::size_t accepted_home = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = pick(corpus);
    for (std::uint64_t e = 0, edits = 1 + rng.below(3); e < edits; ++e) {
      const std::size_t pos = rng.below(text.size() + 1);
      switch (rng.below(6)) {
        case 0:  // append a whole line
          text += pick(fragments);
          break;
        case 1:  // insert a fragment
          text.insert(pos, pick(fragments));
          break;
        case 2:  // insert one character
          text.insert(pos, 1, alphabet[rng.below(alphabet.size())]);
          break;
        case 3:  // delete a short range
          if (pos < text.size()) text.erase(pos, 1 + rng.below(6));
          break;
        case 4:  // replace one character
          if (pos < text.size()) {
            text[pos] = alphabet[rng.below(alphabet.size())];
          }
          break;
        default: {  // splice: this prefix + another message's suffix
          const std::string& other = pick(all);
          text = text.substr(0, pos) +
                 other.substr(rng.below(other.size() + 1));
          break;
        }
      }
    }

    Msg msg;
    WireDialect dialect = WireDialect::kV1;
    std::string error;
    if (!parse(text, msg, dialect, error)) {
      EXPECT_FALSE(error.empty()) << tag << ": '" << text << "'";
      ++rejected;
      continue;
    }
    if (dialect == home) ++accepted_home;
    const std::string canonical = encode_in(dialect, msg);
    Msg reparsed;
    WireDialect again = dialect == WireDialect::kV1 ? WireDialect::kV2
                                                    : WireDialect::kV1;
    ASSERT_TRUE(parse(canonical, reparsed, again, error))
        << tag << ": '" << text << "' -> '" << canonical << "': " << error;
    EXPECT_EQ(again, dialect) << tag << ": '" << text << "'";
    EXPECT_TRUE(same(msg, reparsed))
        << tag << " (" << dialect_name(dialect) << "): '" << text
        << "' -> '" << canonical << "'";
  }
  EXPECT_GT(accepted_home, 200U) << tag;
  EXPECT_GT(rejected, 200U) << tag;
}

TEST(ServiceWireFuzz, FuzzedMessagesRejectOrRoundTrip) {
  const ServiceAnswer ok{"q1", AnswerStatus::kOk, "", 0,
                         {{"mixA", {1.0 / 3.0, 2.0}}, {"mixB", {1e-300}}}};
  const ServiceAnswer err{"q2", AnswerStatus::kError, "mixA/SNUG: gave up",
                          0, {}};
  const ServiceAnswer shed{"q3", AnswerStatus::kRetryAfter, "", 250, {}};
  ServiceBatchAnswer batch{"sweep-02", std::vector<BatchPart>(3)};
  batch.parts[0].cells.push_back({"mixA", {1.0 / 3.0, 0.125}});
  batch.parts[1].status = AnswerStatus::kError;
  batch.parts[1].error = "unknown scheme 'WAT'";
  batch.parts[2].status = AnswerStatus::kRetryAfter;
  batch.parts[2].retry_after_ms = 250;
  const ServiceBatchQuery batch_query{
      "sweep-01",
      {{"cores=4 workload=gzip+mesa+gzip+mesa", "SNUG"},
       {"cores=8 workload=paper", "CC(50%)"}}};
  const std::vector<std::string> queries = {
      encode_query({"client-1.q_07", "cores=4 workload=paper", "CC(50%)"}),
      encode_query({"q", "", "SNUG"})};
  const std::vector<std::string> answers = {
      encode_answer(ok), encode_answer(err), encode_answer(shed)};
  const std::vector<std::string> batch_queries = {
      encode_batch_query(batch_query)};
  const std::vector<std::string> batch_answers = {
      encode_batch_answer(batch)};
  std::vector<std::string> all = queries;
  all.insert(all.end(), answers.begin(), answers.end());
  all.insert(all.end(), batch_queries.begin(), batch_queries.end());
  all.insert(all.end(), batch_answers.begin(), batch_answers.end());

  fuzz_rejects_or_round_trips<ServiceBatchQuery>(
      "query-v1", WireDialect::kV1, queries, all, parse_query);
  fuzz_rejects_or_round_trips<ServiceBatchAnswer>(
      "answer-v1", WireDialect::kV1, answers, all, parse_answer);
  fuzz_rejects_or_round_trips<ServiceBatchQuery>(
      "query-v2", WireDialect::kV2, batch_queries, all, parse_query);
  fuzz_rejects_or_round_trips<ServiceBatchAnswer>(
      "answer-v2", WireDialect::kV2, batch_answers, all, parse_answer);
}

}  // namespace
}  // namespace snug::sim::service
