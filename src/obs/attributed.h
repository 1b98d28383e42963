/**
 * @file
 * The attribution composite: one model and every pass that attributes
 * the model's outcomes, fed from one replay.
 *
 * An attribution pass (PerfAttribution, prof::CctBuilder,
 * prof::SamplingProfiler) is both a TraceSink — it follows the event
 * stream to know *where* the program is (method, calling context,
 * opcode, window) — and an OutcomeListener on the model, which reports
 * *what happened* (cache hits and misses, predictions, each retired
 * instruction's CPI sample) mid-access.
 *
 * Ordering contract: every pass observes each TraceEvent *before* the
 * model processes it, so the outcomes the model fires for that event
 * land in the context the event established. Attributed<Model> is the
 * one implementation of that contract and of the listener hookup:
 *
 *  - onEvent/onEvents deliver each event to every pass, then to the
 *    model (event-major inside a block, so the order holds for
 *    batched replay too);
 *  - the model's outcomes and CPI samples fan out to every pass in the
 *    order the passes were added; with exactly one pass the model's
 *    listener is that pass itself, with no fan-out in between;
 *  - onFinish reaches every pass (the model has nothing to flush).
 *
 * Passes never touch the model, so the model's own statistics are
 * bit-identical to a bare replay, and passes sharing one model see
 * exactly what each would see alone (tests/test_sample.cpp).
 *
 * The composite owns the MethodMap every pass resolves methods
 * against, shared so it can outlive the run that built it (sweep
 * replay), and owns its passes: add<P>(options) constructs one.
 * Model = PipelineSim (outcomes and CPI samples) or CacheSink
 * (outcomes only). The single-pass spellings — AttributedPipeline and
 * AttributedCaches (obs/perf.h), prof::CctPipeline (prof/cct.h) and
 * prof::SamplePipeline (prof/sampler.h) — name the pass type, so the
 * per-event calls into a `final` pass are direct.
 */
#ifndef JRS_OBS_ATTRIBUTED_H
#define JRS_OBS_ATTRIBUTED_H

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "arch/outcome.h"
#include "isa/trace.h"
#include "obs/attribution.h"

namespace jrs::obs {

/** A trace observer that is also wired to the model's outcomes. */
class AttributionPass : public TraceSink, public OutcomeListener {};

/** See file comment. */
template <class Model, class Pass = AttributionPass>
class Attributed : public TraceSink {
  public:
    /** Build the model from @p modelArgs; passes are added after. */
    template <class... ModelArgs>
    explicit Attributed(std::shared_ptr<const MethodMap> map,
                        ModelArgs &&...modelArgs)
        : map_(std::move(map)),
          model_(std::forward<ModelArgs>(modelArgs)...)
    {
    }

    // The model holds a pointer to a pass or to fan_.
    Attributed(const Attributed &) = delete;
    Attributed &operator=(const Attributed &) = delete;

    /**
     * Construct a pass of type @p P over the composite's map and
     * attach it behind the passes already added. Add every pass
     * before the first event.
     */
    template <class P = Pass>
    P &add(typename P::Options opt = {}) {
        auto pass = std::make_unique<P>(*map_, std::move(opt));
        P &ref = *pass;
        passes_.push_back(std::move(pass));
        if (passes_.size() == 1)
            model_.setListener(passes_.front().get());
        else
            model_.setListener(&fan_);
        return ref;
    }

    /** The first pass of dynamic type @p P, or null. */
    template <class P>
    P *find() const {
        for (const auto &pass : passes_) {
            if (auto *p = dynamic_cast<P *>(pass.get()))
                return p;
        }
        return nullptr;
    }

    void onEvent(const TraceEvent &ev) override {
        for (const auto &pass : passes_)
            pass->onEvent(ev);
        model_.onEvent(ev);
    }

    void onEvents(const TraceEvent *evs, std::size_t n) override {
        if (passes_.size() == 1) {
            Pass &pass = *passes_.front();
            for (std::size_t i = 0; i < n; ++i) {
                pass.onEvent(evs[i]);
                model_.onEvent(evs[i]);
            }
            return;
        }
        for (std::size_t i = 0; i < n; ++i) {
            for (const auto &pass : passes_)
                pass->onEvent(evs[i]);
            model_.onEvent(evs[i]);
        }
    }

    void onFinish() override {
        for (const auto &pass : passes_)
            pass->onFinish();
    }

    Model &model() { return model_; }
    const Model &model() const { return model_; }

  private:
    /** The model's listener when more than one pass is attached. */
    struct Fanout final : OutcomeListener {
        explicit Fanout(const std::vector<std::unique_ptr<Pass>> *p)
            : passes(p) {}

        const std::vector<std::unique_ptr<Pass>> *passes;

        void onOutcome(const Outcome &o) override {
            for (const auto &pass : *passes)
                pass->onOutcome(o);
        }
        void onRetire(const CpiSample &s) override {
            for (const auto &pass : *passes)
                pass->onRetire(s);
        }
    };

    std::shared_ptr<const MethodMap> map_;
    Model model_;
    std::vector<std::unique_ptr<Pass>> passes_;
    Fanout fan_{&passes_};
};

} // namespace jrs::obs

#endif // JRS_OBS_ATTRIBUTED_H
