#include "criticality/heuristic_detector.hh"

namespace catchsim
{

HeuristicCriticalityDetector::HeuristicCriticalityDetector(
    const CriticalityConfig &cfg, uint32_t rob_stall_threshold)
    : table_(cfg), recent_(1024), robStallThreshold_(rob_stall_threshold)
{
}

void
HeuristicCriticalityDetector::onRetire(const RetireInfo &ri)
{
    ++stats_.retired;
    ++retiredTotal_;
    table_.tick(retiredTotal_);

    // Propagate "the most recent outer-level load feeding this value"
    // through the dependence graph, like the feeder's register tracking
    // but keyed by seqnum.
    Recent &self = slot(ri.seq);
    self.seq = ri.seq;
    self.loadPc = 0;
    self.recordable = false;

    bool is_outer_load =
        ri.cls == OpClass::Load &&
        (ri.servedBy == Level::L2 || ri.servedBy == Level::LLC ||
         ri.tactCovered);
    if (is_outer_load) {
        self.loadPc = ri.pc;
        self.recordable = true;
    } else {
        for (SeqNum src : ri.srcSeq) {
            if (src == 0)
                continue;
            const Recent &p = slot(src);
            if (p.seq == src && p.recordable) {
                self.loadPc = p.loadPc;
                self.recordable = true;
                break;
            }
        }
    }

    // Heuristic 1: a mispredicting branch flags the outer-level load it
    // depends on.
    if (ri.mispredictedBranch && ri.cls == OpClass::Branch &&
        self.recordable) {
        ++stats_.flaggedFeedsMispredict;
        table_.record(self.loadPc);
    }

    // Heuristic 2: an outer-level load whose completion gated its own
    // retirement slot (it reached the ROB head unfinished).
    if (is_outer_load &&
        ri.retireCycle >= ri.execDone &&
        ri.retireCycle - ri.execDone <= 1 &&
        ri.execDone - ri.execStart >= robStallThreshold_) {
        ++stats_.flaggedRobStall;
        table_.record(ri.pc);
    }
}

} // namespace catchsim
