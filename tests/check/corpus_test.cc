/**
 * @file
 * Corpus regression: every committed fuzz program replays clean under
 * every model with the lockstep checker attached, with identical
 * commit streams across models. Programs land here minimized from
 * past fuzzing (or seeded from the generator), so a regression in
 * squash/rollback/resize machinery trips exactly the program shape
 * that once exposed it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differential.hh"
#include "check/mlpasm.hh"

namespace mlpwin
{
namespace
{

/**
 * Corpus file names, relative to the corpus directory so the test
 * names do not depend on where the checkout lives.
 */
std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             MLPWIN_CHECK_CORPUS_DIR)) {
        if (e.path().extension() == ".mlpasm")
            files.push_back(e.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(CorpusTest, CorpusIsPresent)
{
    EXPECT_GE(corpusFiles().size(), 10u);
}

class CorpusReplay : public ::testing::TestWithParam<std::string>
{
};

std::string
replayName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string stem = std::filesystem::path(info.param).stem();
    std::replace_if(
        stem.begin(), stem.end(),
        [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
        '_');
    return stem;
}

TEST_P(CorpusReplay, AllModelsAgreeUnderChecker)
{
    Program p = loadMlpasm(
        (std::filesystem::path(MLPWIN_CHECK_CORPUS_DIR) / GetParam())
            .string());
    DiffOutcome o = runDifferential(p, DifferentialConfig{});
    EXPECT_EQ(o.status, DiffStatus::Pass) << o.detail;
    ASSERT_FALSE(o.models.empty());
    for (const DiffModelResult &m : o.models) {
        EXPECT_TRUE(m.ran) << m.label << ": " << m.error;
        EXPECT_TRUE(m.halted) << m.label;
        EXPECT_EQ(m.streamHash, o.models.front().streamHash) << m.label;
    }
}

INSTANTIATE_TEST_SUITE_P(All, CorpusReplay,
                         ::testing::ValuesIn(corpusFiles()),
                         replayName);

} // namespace
} // namespace mlpwin
