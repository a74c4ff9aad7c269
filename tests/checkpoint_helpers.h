// Helpers shared by the checkpoint/resume suites.

#ifndef TESTS_CHECKPOINT_HELPERS_H_
#define TESTS_CHECKPOINT_HELPERS_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/harness/campaign.h"

namespace themis {

// An empty scratch directory named after the running test suite, so suites
// that run in parallel never share one.
inline std::string FreshDir(const std::string& name) {
  const char* suite =
      ::testing::UnitTest::GetInstance()->current_test_info()->test_suite_name();
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / (std::string(suite) + "_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Steps a campaign session as Campaign::Run does until it has written
// `checkpoints` mid snapshots, then drops it unfinished: nothing after the
// last snapshot reaches the disk, which is what a SIGKILL right after that
// checkpoint leaves behind. Returns the progress at the crash; fails if the
// campaign ends first. `at_crash`, when set, sees the session just before
// it is dropped.
inline Result<CampaignTick> CrashAfterCheckpoints(
    const CampaignConfig& config, std::string_view strategy, int checkpoints,
    const std::function<void(const CampaignSession&)>& at_crash = {}) {
  Result<std::unique_ptr<CampaignSession>> session =
      CampaignSession::Open(config, strategy);
  if (!session.ok()) {
    return session.status();
  }
  int written = 0;
  while (!(*session)->Done()) {
    (*session)->Step();
    Result<bool> saved = (*session)->Save();
    if (!saved.ok()) {
      return saved.status();
    }
    if (*saved && ++written == checkpoints) {
      if (at_crash) {
        at_crash(**session);
      }
      return (*session)->Tick();
    }
  }
  return Status::FailedPrecondition("campaign finished before the crash point");
}

// Resumes `checkpointed` from its checkpoint directory and expects the
// result of the same campaign run uninterrupted, without checkpoints.
inline void ExpectResumeMatchesUninterrupted(CampaignConfig checkpointed,
                                             std::string_view strategy) {
  CampaignConfig plain = checkpointed;
  plain.checkpoint_dir.clear();
  plain.checkpoint_every_ops = 0;
  plain.resume = false;
  Result<CampaignResult> uninterrupted = Campaign(plain).Run(strategy);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  checkpointed.resume = true;
  Result<CampaignResult> resumed = Campaign(checkpointed).Run(strategy);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->Digest(), uninterrupted->Digest());
  EXPECT_EQ(resumed->testcases, uninterrupted->testcases);
  EXPECT_EQ(resumed->total_ops, uninterrupted->total_ops);
  // Outside the digest, so compared on their own.
  EXPECT_EQ(resumed->transition_pairs, uninterrupted->transition_pairs);
}

}  // namespace themis

#endif  // TESTS_CHECKPOINT_HELPERS_H_
