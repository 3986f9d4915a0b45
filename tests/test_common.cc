/**
 * @file
 * Unit tests for the common substrate: RNG determinism, statistics
 * helpers, tables, and binary serialization round-trips.
 */

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace cisa
{
namespace
{

TEST(Rng, Deterministic)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 7);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 8);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange)
{
    Pcg32 r(9, 1);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Pcg32 r(5, 2);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkIndependence)
{
    Pcg32 a(77, 1);
    Pcg32 c1 = a.fork(1);
    Pcg32 c2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += c1.next() == c2.next();
    EXPECT_LT(same, 4);
}

TEST(Stats, Means)
{
    std::vector<double> xs = {1.0, 2.0, 4.0};
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Table, RendersAligned)
{
    Table t("demo");
    t.header({"a", "bb"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("| 333 |"), std::string::npos);
}

TEST(Table, NumbersFormat)
{
    EXPECT_EQ(Table::num(1.5, 2), "1.50");
    EXPECT_EQ(Table::num(int64_t(42)), "42");
    EXPECT_EQ(Table::pct(0.123), "+12.3%");
}

TEST(Env, Defaults)
{
    EXPECT_EQ(envInt("CISA_NOT_SET_XYZ", 42), 42);
    EXPECT_EQ(envStr("CISA_NOT_SET_XYZ", "dflt"), "dflt");
    EXPECT_GT(simUopBudget(), 0u);
}

TEST(Env, ParsesValidIntegers)
{
    setenv("CISA_ENV_TEST", "123", 1);
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 123);
    setenv("CISA_ENV_TEST", "-5", 1);
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), -5);
    setenv("CISA_ENV_TEST", "+5", 1);
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 5);
    setenv("CISA_ENV_TEST", "  88  ", 1); // surrounding whitespace ok
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 88);
    unsetenv("CISA_ENV_TEST");
}

TEST(Env, MalformedFallsBackToDefault)
{
    // Magnitude beyond int64 either way is malformed, not saturated.
    // The parser the knobs and the tools' flags share leaves its
    // output untouched on every refusal.
    int64_t n = 7;
    for (const char *bad :
         {"abc", "12abc", "1.5", "0x10", "--3", "9e4", " ",
          "99999999999999999999999", "-99999999999999999999999"}) {
        setenv("CISA_ENV_TEST", bad, 1);
        EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 7) << bad;
        EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 7) << bad;
        EXPECT_FALSE(parseIntIn(bad, INT64_MIN, INT64_MAX, &n)) << bad;
    }
    EXPECT_EQ(n, 7);
    unsetenv("CISA_ENV_TEST");
}

TEST(Env, OutOfRangeFallsBackToDefault)
{
    // The contract is default, NOT clamp: an out-of-range value is
    // a config error and silently clamping would hide it.
    for (const char *out : {"1000", "101", "-1"}) {
        setenv("CISA_ENV_TEST", out, 1);
        EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 7) << out;
    }
    setenv("CISA_ENV_TEST", "100", 1); // inclusive bounds
    EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 100);
    setenv("CISA_ENV_TEST", "0", 1);
    EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 0);
    unsetenv("CISA_ENV_TEST");
}

TEST(Env, KnobsSurviveGarbageValues)
{
    // Every numeric CISA_* knob must yield its documented default
    // when set to garbage — a typo'd environment never crashes or
    // silently zeroes a simulation parameter.
    for (const char *name :
         {"CISA_SIM_UOPS", "CISA_SIM_WARMUP", "CISA_SEARCH_RESTARTS"})
        setenv(name, "not-a-number", 1);
    EXPECT_EQ(simUopBudget(), 6000u);
    EXPECT_EQ(simWarmupUops(), 1500u);
    EXPECT_EQ(searchRestarts(), 2);
    for (const char *name :
         {"CISA_SIM_UOPS", "CISA_SIM_WARMUP", "CISA_SEARCH_RESTARTS"})
        unsetenv(name);
}

TEST(Env, BatchKnobs)
{
    // Default: 64-cell chunks.
    unsetenv("CISA_BATCH_WIDTH");
    EXPECT_EQ(batchWidth(), 64);

    setenv("CISA_BATCH_WIDTH", "4", 1);
    EXPECT_EQ(batchWidth(), 4);
    // Below the floor of 2 a "batch" is a per-cell walk; default,
    // not clamp, per the strict-parse contract.
    setenv("CISA_BATCH_WIDTH", "1", 1);
    EXPECT_EQ(batchWidth(), 64);
    setenv("CISA_BATCH_WIDTH", "nope", 1);
    EXPECT_EQ(batchWidth(), 64);

    // The vector-kernel gate: default on, 0 forces per-cell replay
    // (results are bit-identical either way).
    unsetenv("CISA_BATCH_SIMD");
    EXPECT_TRUE(batchSimdEnabled());
    setenv("CISA_BATCH_SIMD", "0", 1);
    EXPECT_FALSE(batchSimdEnabled());
    setenv("CISA_BATCH_SIMD", "bogus", 1);
    EXPECT_TRUE(batchSimdEnabled());

    unsetenv("CISA_BATCH_WIDTH");
    unsetenv("CISA_BATCH_SIMD");
}

TEST(ByteCodec, RoundTrip)
{
    ByteWriter w;
    w.u8(7);
    w.u16(300);
    w.u32(1u << 30);
    w.u64(1ULL << 40);
    w.f32(1.5f);
    w.f64(-2.25);
    w.str("hello");
    std::vector<uint8_t> buf = w.take();

    ByteReader r(buf);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u16(), 300);
    EXPECT_EQ(r.u32(), 1u << 30);
    EXPECT_EQ(r.u64(), 1ULL << 40);
    EXPECT_EQ(r.f32(), 1.5f);
    EXPECT_EQ(r.f64(), -2.25);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteCodec, OverrunSetsErrorNotCrash)
{
    ByteWriter w;
    w.u16(99);
    std::vector<uint8_t> buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.u64(), 0u); // short read: zero value, error flag
    EXPECT_FALSE(r.ok());
}

TEST(ByteCodec, OversizedStringRejected)
{
    ByteWriter w;
    w.u32(1u << 20); // claims a 1 MiB string in a 4-byte buffer
    std::vector<uint8_t> buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Logging, Strfmt)
{
    EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
}

} // namespace
} // namespace cisa
