/**
 * @file
 * Tests of the Simulator facade: warm-up / measurement-window
 * methodology, cache warm-up, run control, and result plumbing.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace mlpwin
{
namespace
{

/** A loop of `iters` iterations, ~8 instructions each. */
Program
smallLoop(std::uint64_t iters)
{
    Assembler a("loop");
    Addr buf = a.allocBss(4096);
    a.li(intReg(1), buf);
    a.li(intReg(9), iters);
    Label top = a.here();
    a.ld(intReg(2), intReg(1), 0);
    a.addi(intReg(2), intReg(2), 1);
    a.st(intReg(2), intReg(1), 0);
    a.addi(intReg(3), intReg(3), 7);
    a.xor_(intReg(4), intReg(4), intReg(3));
    a.addi(intReg(9), intReg(9), -1);
    a.bne(intReg(9), intReg(0), top);
    a.halt();
    return a.finalize();
}

TEST(SimulatorTest, WarmupWindowExcludesWarmupInstructions)
{
    Program p = smallLoop(100000);
    SimConfig cfg;
    cfg.warmupInsts = 20000;
    cfg.maxInsts = 30000;
    Simulator sim(cfg, p);
    SimResult r = sim.run();
    // The measured committed count excludes the warm-up phase.
    EXPECT_GE(r.committed, 30000u);
    EXPECT_LT(r.committed, 30200u);
}

TEST(SimulatorTest, WarmupImprovesMeasuredIpc)
{
    // The loop's cold L1/L2 misses land in the warm-up phase, so the
    // measured IPC is strictly better with a warm-up window.
    Program p = smallLoop(50000);
    SimConfig cold;
    cold.maxInsts = 20000;
    cold.warmInstCaches = false;
    SimResult r_cold = Simulator(cold, p).run();

    SimConfig warm = cold;
    warm.warmupInsts = 20000;
    SimResult r_warm = Simulator(warm, p).run();
    EXPECT_GT(r_warm.ipc, r_cold.ipc);
}

TEST(SimulatorTest, WarmupIsDeterministic)
{
    Program p = smallLoop(60000);
    SimConfig cfg;
    cfg.warmupInsts = 10000;
    cfg.maxInsts = 20000;
    SimResult a = Simulator(cfg, p).run();
    SimResult b = Simulator(cfg, p).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses);
}

TEST(SimulatorTest, InstCacheWarmupRemovesIfetchMisses)
{
    Program p = smallLoop(2000);
    SimConfig off;
    off.warmInstCaches = false;
    SimResult r_off = Simulator(off, p).run();

    SimConfig on;
    on.warmInstCaches = true;
    SimResult r_on = Simulator(on, p).run();

    // Same work, fewer cold stalls.
    EXPECT_EQ(r_on.committed, r_off.committed);
    EXPECT_LT(r_on.cycles, r_off.cycles);
}

TEST(SimulatorTest, DataCacheWarmupRemovesDataMisses)
{
    // A single pass over a 1 MiB buffer: every line is cold without
    // data warm-up and L2-resident with it.
    Assembler a("sweep");
    constexpr std::uint64_t kBytes = 1 << 20;
    Addr buf = a.allocBss(kBytes, 64);
    a.li(intReg(1), buf);
    a.li(intReg(9), kBytes / 64);
    Label top = a.here();
    a.ld(intReg(2), intReg(1), 0);
    a.addi(intReg(1), intReg(1), 64);
    a.addi(intReg(9), intReg(9), -1);
    a.bne(intReg(9), intReg(0), top);
    a.halt();
    Program p = a.finalize();

    SimConfig cold;
    SimResult r_cold = Simulator(cold, p).run();

    SimConfig warm;
    warm.warmDataCaches = true;
    SimResult r_warm = Simulator(warm, p).run();

    EXPECT_LT(r_warm.l2DemandMisses, r_cold.l2DemandMisses / 4);
    EXPECT_LT(r_warm.cycles, r_cold.cycles);
}

TEST(SimulatorTest, MeasuredIpcMatchesCycleAndInstDeltas)
{
    Program p = smallLoop(50000);
    SimConfig cfg;
    cfg.warmupInsts = 10000;
    cfg.maxInsts = 25000;
    SimResult r = Simulator(cfg, p).run();
    EXPECT_NEAR(r.ipc,
                static_cast<double>(r.committed) /
                    static_cast<double>(r.cycles),
                1e-9);
}

TEST(SimulatorTest, HaltDuringWarmupStillFinishes)
{
    Program p = smallLoop(100); // Halts long before the warm-up ends.
    SimConfig cfg;
    cfg.warmupInsts = 1000000;
    cfg.maxInsts = 1000000;
    SimResult r = Simulator(cfg, p).run();
    EXPECT_TRUE(r.halted);
}

TEST(SimulatorTest, ResidencyVectorCoversMeasuredCyclesOnly)
{
    const WorkloadSpec &spec = findWorkload("libquantum");
    Program p = spec.make(1ull << 40);
    SimConfig cfg;
    cfg.model = ModelKind::Resizing;
    cfg.warmupInsts = 5000;
    cfg.maxInsts = 10000;
    SimResult r = Simulator(cfg, p).run();
    std::uint64_t level_cycles = 0;
    for (std::uint64_t c : r.cyclesAtLevel)
        level_cycles += c;
    // Residency is recorded once per measured cycle.
    EXPECT_NEAR(static_cast<double>(level_cycles),
                static_cast<double>(r.cycles),
                static_cast<double>(r.cycles) * 0.01 + 2.0);
}

TEST(SimulatorTest, RunaheadModelRollsBackExactly)
{
    // Architectural results must match the emulator even across many
    // runahead episodes (undo-log rollback).
    const WorkloadSpec &spec = findWorkload("libquantum");
    Program p = spec.make(400);

    MainMemory ref_mem;
    ref_mem.loadProgram(p);
    Emulator ref(ref_mem, p.entry());
    while (!ref.halted())
        ref.step();

    SimConfig cfg;
    cfg.model = ModelKind::Runahead;
    SimResult r = Simulator(cfg, p).run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.archRegChecksum, ref.regs().checksum());
}

/**
 * The predictor and prefetcher ablations (bench/abl_predictor,
 * bench/abl_pf_kind) differ from the default machine only in the
 * algorithm kind; the result cache must never hand one the other's
 * result.
 */
TEST(ConfigFingerprintTest, PredictorKindChangesFingerprint)
{
    SimConfig base;
    SimConfig bimodal;
    bimodal.bp.kind = DirectionKind::Bimodal;
    EXPECT_NE(configFingerprint(bimodal), configFingerprint(base));
}

TEST(ConfigFingerprintTest, PrefetcherKindChangesFingerprint)
{
    SimConfig base;
    SimConfig stream;
    stream.mem.prefetcher.kind = PrefetcherKind::Stream;
    EXPECT_NE(configFingerprint(stream), configFingerprint(base));
}

TEST(SimulatorTest, ModelNamesAreStable)
{
    EXPECT_STREQ(modelName(ModelKind::Base), "base");
    EXPECT_STREQ(modelName(ModelKind::Fixed), "fixed");
    EXPECT_STREQ(modelName(ModelKind::Ideal), "ideal");
    EXPECT_STREQ(modelName(ModelKind::Resizing), "resizing");
    EXPECT_STREQ(modelName(ModelKind::Runahead), "runahead");
    EXPECT_STREQ(modelName(ModelKind::Occupancy), "occupancy");
}

} // namespace
} // namespace mlpwin
