/**
 * @file
 * Ablation: a fixed-length (RISC-V-style) host ISA for the composite
 * features. The paper argues (Section II) that RISC-V could host the
 * same customization axes, trading the ILD away for lower code
 * density. This bench quantifies that trade on our infrastructure:
 * every instruction re-encoded at 4 bytes, the ILD removed from the
 * front-end model, fetch/I-cache behaviour re-simulated.
 */

#include <cstdio>

#include <map>

#include "bench/benchcommon.hh"
#include "decoder/decodemodel.hh"
#include "migration/translate.hh"

using namespace cisa;

namespace
{

/** Re-encode a trace of @p prog as fixed 4-byte instructions. */
Trace
fixedLenTrace(const Trace &t, const MachineProgram &prog)
{
    Trace out = t;
    // Map each instruction to a fresh 4-byte-spaced address,
    // preserving relative order (a linear re-layout of the binary).
    // The layout comes from the program, not from the trace, which
    // holds only a prefix of the run.
    std::map<uint64_t, uint64_t> remap;
    for (const auto &f : prog.funcs)
        for (const auto &b : f.blocks)
            for (const auto &i : b.instrs)
                remap[i.addr] = 0;
    uint64_t next = 0x400000;
    for (auto &[pc, tgt] : remap) {
        tgt = next;
        next += 4;
    }
    for (auto &op : out.ops) {
        op.pc = remap[op.pc];
        op.len = 4;
    }
    return out;
}

} // namespace

int
main()
{
    std::printf("== Ablation: variable-length superset host vs "
                "fixed-length (RISC-V-style) host ==\n\n");

    MicroArchConfig ua;
    for (const auto &c : MicroArchConfig::enumerate()) {
        if (c.outOfOrder && c.width == 2 &&
            c.bpred == BpKind::Tournament && c.uopCache &&
            c.l1iKB == 32) {
            ua = c;
            break;
        }
    }

    Table t("per-ISA comparison (suite mean over sampled phases)");
    t.header({"feature set", "code bytes x86", "code bytes fixed",
              "IPC x86", "IPC fixed", "front-end W x86",
              "front-end W fixed"});

    for (const char *name :
         {"microx86-16D-32W-P", "x86-16D-64W-P", "x86-64D-64W-F"}) {
        FeatureSet fs = FeatureSet::parse(name);
        CompileOptions opts = CompileOptions::fromEnv();
        opts.target = fs;
        double bytes_v = 0, bytes_f = 0, ipc_v = 0, ipc_f = 0;
        int n = 0;
        for (int ph = 0; ph < phaseCount(); ph += 6) {
            // Capped for the 1000 + 4000 uops simulated below.
            std::shared_ptr<const PhaseArtifact> art =
                phaseArtifact(ph, opts, 5000);
            Trace fixed = fixedLenTrace(art->trace, art->program);
            CoreConfig cc{fs, ua};
            PerfResult rv =
                simulateCore(cc, art->trace, 4000, 1000);
            PerfResult rf = simulateCore(cc, fixed, 4000, 1000);
            bytes_v += double(art->program.stats.codeBytes);
            bytes_f += double(art->program.stats.instrs) * 4.0;
            ipc_v += rv.ipc;
            ipc_f += rf.ipc;
            n++;
        }
        auto var_de = DecodeEngine::build(fs, ua, false);
        auto fix_de = DecodeEngine::build(fs, ua, true);
        t.row({name, Table::num(bytes_v / n, 0),
               Table::num(bytes_f / n, 0),
               Table::num(ipc_v / n, 3), Table::num(ipc_f / n, 3),
               Table::num(var_de.total().peakPowerW, 3),
               Table::num(fix_de.total().peakPowerW, 3)});
    }
    t.print();

    std::printf("\nA fixed-length host keeps the composite feature "
                "axes (depth, width,\npredication, SIMD) and drops "
                "the ILD, at the cost of code density -\nthe "
                "trade-off the paper predicts for a RISC-V host "
                "(Section II).\n");
    return 0;
}
