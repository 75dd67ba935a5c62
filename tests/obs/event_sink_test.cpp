// FADEWICH_OBS_SINK is strict: a set but unopenable path throws instead
// of silently dropping every event.  The knob is read once, on the
// process's first use of the global event log, so this suite lives in
// its own executable where nothing has touched that log yet.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/event_log.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {
namespace {

namespace fs = std::filesystem;

TEST(ObsEventSink, UnopenablePathThrowsNamingTheVariableAndPath) {
  set_enabled(true);
  const fs::path missing = fs::temp_directory_path() / "fadewich_no_sink_dir";
  fs::remove_all(missing);
  const std::string path = (missing / "events.jsonl").string();
  ASSERT_EQ(::setenv("FADEWICH_OBS_SINK", path.c_str(), 1), 0);
  try {
    EventLog::global();
    ADD_FAILURE() << "an unopenable sink must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FADEWICH_OBS_SINK"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }

  // An empty value reads as unset: the log comes up without a sink.
  ASSERT_EQ(::setenv("FADEWICH_OBS_SINK", "", 1), 0);
  EventLog& log = EventLog::global();
  log.info("test", "no sink attached");
  const std::vector<Event> recent = log.recent();
  ASSERT_FALSE(recent.empty());
  EXPECT_EQ(recent.back().message, "no sink attached");
  ::unsetenv("FADEWICH_OBS_SINK");
}

}  // namespace
}  // namespace fadewich::obs
