#include "arch/bpred/predictors.h"

namespace jrs {

PredictorBank::PredictorBank()
{
    preds_.push_back(std::make_unique<TwoBitPredictor>());
    preds_.push_back(std::make_unique<Bht1Level>());
    preds_.push_back(std::make_unique<GShare>());
    preds_.push_back(std::make_unique<TwoLevelPc>());
    mispredicts_.assign(preds_.size(), 0);
}

void
PredictorBank::onEvent(const TraceEvent &ev)
{
    if (ev.kind == NKind::Branch) {
        ++condBranches_;
        bool referenceWrong = false;
        for (std::size_t i = 0; i < preds_.size(); ++i) {
            const bool wrong = preds_[i]->predict(ev.pc) != ev.taken;
            if (wrong)
                ++mispredicts_[i];
            if (i + 1 == preds_.size())
                referenceWrong = wrong;
            preds_[i]->update(ev.pc, ev.taken);
        }
        if (listener_ != nullptr) {
            Outcome o;
            o.pc = ev.pc;
            o.kind = PerfKind::CondBranch;
            o.phase = ev.phase;
            o.bad = referenceWrong;
            listener_->onOutcome(o);
        }
        return;
    }
    if (ev.kind == NKind::IndirectJump
        || ev.kind == NKind::IndirectCall) {
        ++indirects_;
        const bool wrong = btb_.predict(ev.pc) != ev.target;
        if (wrong)
            ++btbMisses_;
        btb_.update(ev.pc, ev.target);
        if (listener_ != nullptr) {
            Outcome o;
            o.pc = ev.pc;
            o.kind = PerfKind::IndirectTarget;
            o.phase = ev.phase;
            o.bad = wrong;
            listener_->onOutcome(o);
        }
    }
}

void
PredictorBank::onEvents(const TraceEvent *evs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        onEvent(evs[i]);
}

std::vector<PredictorResult>
PredictorBank::results() const
{
    std::vector<PredictorResult> out;
    for (std::size_t i = 0; i < preds_.size(); ++i) {
        PredictorResult r;
        r.name = preds_[i]->name();
        r.condBranches = condBranches_;
        r.condMispredicts = mispredicts_[i];
        r.indirects = indirects_;
        r.indirectMispredicts = btbMisses_;
        out.push_back(r);
    }
    return out;
}

} // namespace jrs
