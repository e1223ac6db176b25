// Pins the telemetry-file envelope the paper benches write
// (bench_results/<bench>.telemetry.json): every file TelemetryFile
// writes must lead with the schema_version a reader checks before
// trusting the rest. Compiled against the real bench/bench_util.cc, so
// a schema change that forgets the version bump (or the field) fails
// here, not in whatever parses the file.

#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace irbuf::bench {
namespace {

std::string WriteAndRead(const std::string& name, TelemetryFile& file) {
  EXPECT_TRUE(file.Close());
  std::ifstream in(std::string(::testing::TempDir()) + "/" + name +
                   ".telemetry.json");
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class TelemetrySchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Redirect ResultsDir() into the test sandbox.
    ::setenv("IRBUF_RESULTS_DIR", ::testing::TempDir().c_str(), 1);
  }
  void TearDown() override { ::unsetenv("IRBUF_RESULTS_DIR"); }
};

TEST_F(TelemetrySchemaTest, CloseStampsCurrentSchemaVersion) {
  TelemetryFile file("schema_probe");
  RunRecord record;
  record.label = "probe";
  record.policy = "lru";
  file.Add(record);
  const std::string json = WriteAndRead("schema_probe", file);

  const std::string version_key =
      "\"schema_version\":" + std::to_string(kTelemetrySchemaVersion);
  const size_t version_at = json.find(version_key);
  ASSERT_NE(version_at, std::string::npos) << json;
  // The version leads the envelope: a tool can reject a file before
  // parsing any run payload.
  EXPECT_LT(version_at, json.find("\"bench\""));
  EXPECT_NE(json.find("\"bench\":\"schema_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":["), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"probe\""), std::string::npos);
}

TEST_F(TelemetrySchemaTest, EnvelopeBracesBalance) {
  TelemetryFile file("balance_probe");
  file.AddRaw("{\"label\":\"raw\",\"nested\":{\"k\":[1,2]}}");
  const std::string json = WriteAndRead("balance_probe", file);
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TelemetrySchemaTest, RunRecordJsonCarriesSharedSchemaKeys) {
  RunRecord record;
  record.label = "BAF/RAP";
  record.policy = "rap";
  record.buffer_aware = true;
  record.buffer_pages = 64;
  record.disk_reads = 7;
  const std::string json = RunRecordJson(record);
  EXPECT_NE(json.find("\"label\":\"BAF/RAP\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"BAF\""), std::string::npos);
  EXPECT_NE(json.find("\"buffer_pages\":64"), std::string::npos);
  EXPECT_NE(json.find("\"disk_reads\":7"), std::string::npos);
  // The record payload itself is NOT versioned — the envelope is.
  EXPECT_EQ(json.find("schema_version"), std::string::npos);
}

}  // namespace
}  // namespace irbuf::bench
