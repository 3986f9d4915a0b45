/**
 * @file
 * Tests of the deterministic fault-injection plane
 * (src/common/faultinject.hh): spec parsing (including every
 * rejection path leaving the previous config untouched), seeded
 * determinism of the firing schedule, nth/count/short semantics,
 * errno injection, counter snapshots, the disarm guarantee that an
 * unarmed plane never fires, and strict parsing of CISA_FAULTS_SEED
 * when the plane arms from the environment.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/faultinject.hh"

namespace cisa
{
namespace
{

/** Reset to a clean, disarmed plane around every test. */
class FaultInject : public ::testing::Test
{
  protected:
    void SetUp() override { ASSERT_TRUE(faultConfigure("")); }
    void TearDown() override { ASSERT_TRUE(faultConfigure("")); }
};

/** Fire pattern of @p site over @p n checks, as a bitmap string. */
std::string
firePattern(FaultSite site, int n)
{
    std::string out;
    for (int i = 0; i < n; i++)
        out += faultPoint(site) ? '1' : '0';
    return out;
}

TEST_F(FaultInject, UnarmedIsInertAndCheap)
{
    EXPECT_FALSE(faultArmed());
    EXPECT_FALSE(faultHit(FaultSite::NetWrite));
    EXPECT_FALSE(faultHit(FaultSite::DiskFsync));
    // Never-armed plane exports nothing: stats stay clean.
    EXPECT_TRUE(faultSnapshot().empty());
}

TEST_F(FaultInject, SiteNamesRoundTrip)
{
    std::set<std::string> seen;
    for (int i = 0; i < kFaultSiteCount; i++) {
        std::string name = faultSiteName(FaultSite(i));
        EXPECT_FALSE(name.empty());
        // Every site is individually configurable by its name.
        EXPECT_TRUE(faultConfigure(name + ":p=1"))
            << "site " << name;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate site name " << name;
    }
    ASSERT_TRUE(faultConfigure(""));
}

TEST_F(FaultInject, NthFiresExactlyEveryNth)
{
    ASSERT_TRUE(faultConfigure("net.read:nth=3"));
    EXPECT_TRUE(faultArmed());
    EXPECT_EQ(firePattern(FaultSite::NetRead, 9), "001001001");
    // Other sites are untouched.
    EXPECT_FALSE(faultPoint(FaultSite::NetWrite));
}

TEST_F(FaultInject, CountCapsTotalFires)
{
    ASSERT_TRUE(faultConfigure("net.write:nth=1,count=2"));
    EXPECT_EQ(firePattern(FaultSite::NetWrite, 5), "11000");
}

TEST_F(FaultInject, ProbabilisticScheduleIsSeedDeterministic)
{
    ASSERT_TRUE(faultConfigure("net.read:p=0.3", 42));
    std::string first = firePattern(FaultSite::NetRead, 200);
    // Same spec + seed: identical schedule, not just statistics.
    ASSERT_TRUE(faultConfigure("net.read:p=0.3", 42));
    EXPECT_EQ(firePattern(FaultSite::NetRead, 200), first);
    // Different seed: (overwhelmingly) different schedule.
    ASSERT_TRUE(faultConfigure("net.read:p=0.3", 43));
    EXPECT_NE(firePattern(FaultSite::NetRead, 200), first);
    // p=0.3 over 200 draws lands well inside [20, 120] fires.
    int fires = 0;
    for (char c : first)
        fires += c == '1';
    EXPECT_GT(fires, 20);
    EXPECT_LT(fires, 120);
}

TEST_F(FaultInject, SitesDrawIndependentStreams)
{
    ASSERT_TRUE(
        faultConfigure("net.read:p=0.5;net.write:p=0.5", 7));
    std::string a = firePattern(FaultSite::NetRead, 100);
    // Re-seed and interleave checks of the second site: the first
    // site's schedule must not shift (per-site streams).
    ASSERT_TRUE(
        faultConfigure("net.read:p=0.5;net.write:p=0.5", 7));
    std::string b;
    for (int i = 0; i < 100; i++) {
        faultPoint(FaultSite::NetWrite);
        b += faultPoint(FaultSite::NetRead) ? '1' : '0';
    }
    EXPECT_EQ(b, a);
}

TEST_F(FaultInject, FiringSetsInjectedErrno)
{
    ASSERT_TRUE(faultConfigure("net.write:nth=1"));
    errno = 0;
    ASSERT_TRUE(faultPoint(FaultSite::NetWrite));
    EXPECT_EQ(errno, EPIPE); // the site default

    ASSERT_TRUE(faultConfigure("net.write:nth=1,errno=ENOSPC"));
    errno = 0;
    ASSERT_TRUE(faultPoint(FaultSite::NetWrite));
    EXPECT_EQ(errno, ENOSPC);

    ASSERT_TRUE(faultConfigure("net.write:nth=1,errno=11"));
    errno = 0;
    ASSERT_TRUE(faultPoint(FaultSite::NetWrite));
    EXPECT_EQ(errno, 11);
}

TEST_F(FaultInject, DefaultErrnosAreSane)
{
    EXPECT_EQ(faultSiteErrno(FaultSite::NetRead), ECONNRESET);
    EXPECT_EQ(faultSiteErrno(FaultSite::NetWrite), EPIPE);
    EXPECT_EQ(faultSiteErrno(FaultSite::NetConnect), ECONNREFUSED);
    EXPECT_EQ(faultSiteErrno(FaultSite::NetAccept), ECONNABORTED);
    EXPECT_EQ(faultSiteErrno(FaultSite::DiskWrite), ENOSPC);
    EXPECT_EQ(faultSiteErrno(FaultSite::DiskFsync), EIO);
}

TEST_F(FaultInject, ShortBytesDefaultsToHalfAndHonorsOverride)
{
    ASSERT_TRUE(faultConfigure("disk.write:nth=1"));
    EXPECT_EQ(faultShortBytes(100), 50u);
    ASSERT_TRUE(faultConfigure("disk.write:nth=1,short=7"));
    EXPECT_EQ(faultShortBytes(100), 7u);
    // A short= beyond the buffer can't "un-tear" the write.
    EXPECT_EQ(faultShortBytes(4), 4u);
}

TEST_F(FaultInject, SnapshotCountsChecksAndFires)
{
    ASSERT_TRUE(faultConfigure("net.read:nth=2"));
    for (int i = 0; i < 10; i++)
        faultPoint(FaultSite::NetRead);
    auto snaps = faultSnapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].site, "net.read");
    EXPECT_EQ(snaps[0].checks, 10u);
    EXPECT_EQ(snaps[0].fired, 5u);
    // Reconfigure resets the counters.
    ASSERT_TRUE(faultConfigure("net.read:nth=2"));
    snaps = faultSnapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].checks, 0u);
}

TEST_F(FaultInject, MalformedSpecsRejectedConfigUntouched)
{
    ASSERT_TRUE(faultConfigure("net.read:nth=1"));
    const char *bad[] = {
        "bogus.site:p=1",   // unknown site
        "net.read",         // no clauses
        "net.read:p=1.5",   // p out of range
        "net.read:p=-0.1",  //
        "net.read:nth=0",   // nth must be >= 1
        "net.read:wat=1",   // unknown key
        "net.read:errno=EMADEUP", // unknown errno name
        "net.read:p",       // no value
    };
    for (const char *spec : bad) {
        std::string err;
        EXPECT_FALSE(faultConfigure(spec, 1, &err))
            << "accepted: " << spec;
        EXPECT_FALSE(err.empty()) << spec;
        // The previous (firing) config must still be in force.
        EXPECT_TRUE(faultArmed()) << spec;
        EXPECT_TRUE(faultPoint(FaultSite::NetRead)) << spec;
    }
}

TEST_F(FaultInject, DisarmStopsFiringImmediately)
{
    ASSERT_TRUE(faultConfigure("net.read:nth=1"));
    EXPECT_TRUE(faultPoint(FaultSite::NetRead));
    ASSERT_TRUE(faultConfigure(""));
    EXPECT_FALSE(faultArmed());
    EXPECT_FALSE(faultHit(FaultSite::NetRead));
    // Empty clauses are tolerated, and a clause-free spec disarms.
    ASSERT_TRUE(faultConfigure(";;"));
    EXPECT_FALSE(faultArmed());
}

TEST_F(FaultInject, DelaySiteFiresWithoutFailing)
{
    // exec.delay's "fault" is the sleep; ms=0 keeps the test fast.
    ASSERT_TRUE(faultConfigure("exec.delay:nth=1,ms=0"));
    EXPECT_TRUE(faultPoint(FaultSite::ExecDelay));
    auto snaps = faultSnapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].site, "exec.delay");
    EXPECT_EQ(snaps[0].fired, 1u);
}

TEST(FaultInjectEnv, MalformedSeedWarnsAndUsesTheDefaultSeed)
{
    // The plane arms from CISA_FAULTS during static initialization,
    // so the check runs in a re-executed copy of this binary (a
    // threadsafe-style death test) whose environment carries a
    // malformed CISA_FAULTS_SEED. Nothing here may configure the
    // plane before the statement: the copy re-runs this body.
    const char *spec = "net.read:p=0.3";
    ASSERT_EQ(::setenv("CISA_FAULTS", spec, 1), 0);
    ASSERT_EQ(::setenv("CISA_FAULTS_SEED", "abc", 1), 0);
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            std::string armed = firePattern(FaultSite::NetRead, 200);
            faultConfigure(spec, 1);
            bool seedOne = firePattern(FaultSite::NetRead, 200) == armed;
            std::exit(seedOne ? 0 : 1);
        },
        ::testing::ExitedWithCode(0),
        "CISA_FAULTS_SEED=\"abc\" is not an integer; using default 1");
    ::unsetenv("CISA_FAULTS");
    ::unsetenv("CISA_FAULTS_SEED");
}

} // namespace
} // namespace cisa
