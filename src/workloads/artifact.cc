#include "workloads/artifact.hh"

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "workloads/profiles.hh"
#include "workloads/synth.hh"

namespace cisa
{

namespace
{

/** The memo: one slot per (phase, feature-set id, pipeline key). */
class ArtifactMemo
{
  public:
    using Ptr = std::shared_ptr<const PhaseArtifact>;

    Ptr
    get(int phase_idx, const CompileOptions &opts, uint64_t cap)
    {
        Key key{phase_idx, opts.target.id(), opts.pipelineKey()};
        std::promise<Ptr> build;
        std::shared_future<Ptr> art;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = slots_.find(key);
            if (it != slots_.end() && it->second.recordCap >= cap) {
                it->second.lastUse = ++clock_;
                art = it->second.art;
            } else {
                if (it == slots_.end() &&
                    slots_.size() >= kPhaseArtifactMemoEntries)
                    evictOldest();
                art = build.get_future().share();
                slots_[key] = {art, cap, ++clock_, &build};
                builds_++;
                owner = true;
            }
        }
        // Build outside the lock; other callers of this key wait on
        // the shared future meanwhile.
        if (owner) {
            try {
                build.set_value(std::make_shared<const PhaseArtifact>(
                    buildPhaseArtifact(phase_idx, opts, cap)));
            } catch (...) {
                // Forget the failed slot so a later call retries.
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    auto it = slots_.find(key);
                    if (it != slots_.end() &&
                        it->second.builder == &build)
                        slots_.erase(it);
                }
                build.set_exception(std::current_exception());
            }
        }
        return art.get();
    }

    uint64_t
    builds()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return builds_;
    }

  private:
    using Key = std::tuple<int, int, uint64_t>;

    struct Slot
    {
        std::shared_future<Ptr> art;
        uint64_t recordCap = 0;
        uint64_t lastUse = 0;
        /** The inserting call's promise; compared, never used. */
        const void *builder = nullptr;
    };

    void
    evictOldest()
    {
        auto oldest = std::min_element(
            slots_.begin(), slots_.end(),
            [](const auto &a, const auto &b) {
                return a.second.lastUse < b.second.lastUse;
            });
        slots_.erase(oldest);
    }

    std::mutex mu_;
    std::map<Key, Slot> slots_;
    uint64_t clock_ = 0;
    uint64_t builds_ = 0;
};

ArtifactMemo &
memo()
{
    static ArtifactMemo m;
    return m;
}

} // namespace

uint64_t
stage1RecordCap(uint64_t timed_uops)
{
    return simWarmupUops() + std::max(timed_uops, simUopBudget()) +
           1;
}

const MemImage &
phaseImage(int phase_idx, int ptr_bits)
{
    // Same once-per-entry scheme as phaseModule: the vectors are
    // sized up front and never resized, so entries stay put while
    // other entries build concurrently.
    struct Templates
    {
        std::vector<MemImage> imgs;
        std::vector<std::once_flag> once;
        explicit Templates(size_t n) : imgs(n), once(n) {}
    };
    static Templates t(2 * size_t(phaseCount()));
    panic_if(ptr_bits != 32 && ptr_bits != 64,
             "bad pointer width %d", ptr_bits);
    const IrModule &mod = phaseModule(phase_idx);
    size_t i = 2 * size_t(phase_idx) + (ptr_bits == 64);
    std::call_once(t.once[i], [&] {
        t.imgs[i] = MemImage::build(mod, ptr_bits);
    });
    return t.imgs[i];
}

Trace
runPhaseProgram(int phase_idx, const MachineProgram &prog,
                uint64_t record_cap)
{
    MemImage img = phaseImage(phase_idx, prog.target.widthBits());
    Trace trace;
    executeMachine(prog, img, 1ULL << 31, &trace, 1ULL << 21,
                   record_cap);
    panic_if(trace.truncated,
             "phase %d trace truncated; shrink targetDynOps",
             phase_idx);
    return trace;
}

PhaseArtifact
buildPhaseArtifact(int phase_idx, const CompileOptions &opts,
                   uint64_t record_cap)
{
    PhaseArtifact a;
    a.program = compile(phaseModule(phase_idx), opts, &a.report);
    a.trace = runPhaseProgram(phase_idx, a.program, record_cap);
    return a;
}

std::shared_ptr<const PhaseArtifact>
phaseArtifact(int phase_idx, const CompileOptions &opts,
              uint64_t timed_uops)
{
    return memo().get(phase_idx, opts, stage1RecordCap(timed_uops));
}

uint64_t
phaseArtifactBuilds()
{
    return memo().builds();
}

} // namespace cisa
