#include "warm.hh"

void
FastForward::warm(int pos)
{
    // 'ways' is tagged WarmVisible: quiet. 'intervalInstrs' is a
    // schedule field (the window-boundary re-key): also quiet.
    // 'latency' is in the schema but untagged, and 'newKnob' is not
    // in it at all: both are findings.
    state_ += pos % static_cast<int>(cfg_.ways);
    state_ += static_cast<int>(cfg_.intervalInstrs);
    state_ += static_cast<int>(cfg_.latency);
    state_ += static_cast<int>(cfg_.newKnob);
}
