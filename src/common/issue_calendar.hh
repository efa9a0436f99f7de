/**
 * @file
 * Issue scheduling for the timing model: execution-port bandwidth as a
 * per-cycle issue budget (IssueCalendar) and a single server's busy
 * time as merged spans (BusyTimeline).
 *
 * A naive "next-free time per port" model breaks out-of-order schedules:
 * an op that becomes ready far in the future (e.g. dependent on a memory
 * load) would reserve a port *from its start time* and make the port
 * look busy for every intervening cycle, stalling younger ops that are
 * ready now. Real schedulers issue oldest-ready-first; a port idle
 * before a future issue is usable. Both classes therefore schedule each
 * request at the first cycle >= its ready time with a spare slot, and
 * an occupancy of several slots takes the first free cycles from there
 * (split around earlier reservations if need be).
 *
 * Both share one contract: only the newest `window` cycles are
 * remembered. A request below the window floor (newest cycle seen −
 * window + 1) is clamped up to it.
 *
 * - IssueCalendar counts issues per cycle in a ring indexed by a mask,
 *   for the core's multi-port ALU/load/store/FP calendars: ops land
 *   close together there, so per-cycle counts are cheap.
 * - BusyTimeline is the one-port case as sorted, merged [begin, end)
 *   spans, for DRAM banks and channel buses. Those reserve 80-cycle
 *   precharge+activate and 11-cycle burst runs thousands of cycles
 *   apart; stepping the ring one cycle at a time over each reservation
 *   used to make Dram::access the simulator's top self-time entry. A
 *   request at or past the last span appends or extends it in O(1);
 *   anything earlier binary-searches. schedule() returns exactly what
 *   IssueCalendar(1, window).schedule() returns for every call
 *   sequence, clamp and split occupancy included (pinned by a
 *   randomized differential test against the ring).
 */

#ifndef CATCHSIM_COMMON_ISSUE_CALENDAR_HH_
#define CATCHSIM_COMMON_ISSUE_CALENDAR_HH_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace catchsim
{

/** Default window: far beyond any wakeup spread or DRAM queueing delay. */
constexpr uint32_t kIssueWindow = 16384;

class IssueCalendar
{
  public:
    /**
     * @param ports issue slots available per cycle, 1..255 (the packed
     *        8-bit per-cycle count; SimConfig::validate enforces it)
     * @param window how far ahead of the newest scheduled cycle an op
     *        can land, a power of two
     */
    explicit IssueCalendar(uint32_t ports, uint32_t window = kIssueWindow)
        : ports_(ports), mask_(window - 1), slots_(window, 0)
    {
        CATCHSIM_ASSERT(isPowerOfTwo(window), "calendar window ", window,
                        " is not a power of two");
    }

    /**
     * Schedules one issue at the first cycle >= @p desired with a spare
     * slot, occupying @p slots issue slots (an unpipelined op models its
     * occupancy by consuming several).
     *
     * Each ring slot packs (cycle << 8 | count): a slot only counts for
     * cycle c if its stored cycle matches, so sliding the window forward
     * needs no eager zeroing. Return values are identical to the
     * eager-zeroing implementation for every call sequence.
     */
    Cycle
    schedule(Cycle desired, uint32_t slots = 1)
    {
        const Cycle w = mask_ + 1;
        if (desired > maxSeen_)
            maxSeen_ = desired;
        // Requests below the window floor are clamped (they would have
        // been scheduled long ago; rare and harmless).
        Cycle floor = maxSeen_ >= w ? maxSeen_ - w + 1 : 0;
        Cycle c = desired < floor ? floor : desired;
        uint32_t remaining = slots;
        Cycle start = c;
        while (true) {
            if (c > maxSeen_)
                maxSeen_ = c;
            uint64_t &slot = slots_[c & mask_];
            uint32_t used = (slot >> 8) == c
                                ? static_cast<uint32_t>(slot & 0xff)
                                : 0;
            uint32_t free_here = ports_ > used ? ports_ - used : 0;
            if (free_here == 0) {
                if (remaining == slots)
                    start = c + 1; // haven't started issuing yet
                ++c;
                continue;
            }
            uint32_t take = free_here < remaining ? free_here : remaining;
            slot = (c << 8) | (used + take);
            remaining -= take;
            if (remaining == 0)
                return start;
            ++c;
        }
    }

  private:
    uint32_t ports_;
    Cycle mask_;
    /// Ring of (cycle << 8 | issue count); a slot is implicitly empty
    /// when its stored cycle is not the one being probed.
    std::vector<uint64_t> slots_;
    Cycle maxSeen_ = 0;
};

class BusyTimeline
{
  public:
    /**
     * @param window cycles remembered behind the newest one seen (any
     *        value >= 1)
     * @param min_slots the fewest slots any reserving call will ask for
     *        (0 counts as 1); it sizes the span storage
     *
     * Every span is at least min_slots long (spans only grow and merge)
     * and spans never touch, so at most (window - 1) / (min_slots + 1)
     * + 1 of them reach into the window, plus the one being added. That
     * much storage is allocated here, so the hot path never allocates.
     * A caller breaking the min_slots promise may trip the overflow
     * assertion but never gets a wrong answer.
     */
    explicit BusyTimeline(uint32_t window = kIssueWindow,
                          uint32_t min_slots = 1)
        : window_(window),
          capacity_((window - 1) / (std::max(min_slots, 1u) + 1) + 2),
          spans_(std::make_unique_for_overwrite<Span[]>(capacity_))
    {
    }

    /**
     * Reserves the first @p slots free cycles >= @p desired (clamped to
     * the window floor) and @returns the first of them; with zero slots
     * it only finds that cycle.
     */
    Cycle
    schedule(Cycle desired, uint32_t slots = 1)
    {
        if (desired > maxSeen_)
            maxSeen_ = desired;
        Cycle floor = maxSeen_ >= window_ ? maxSeen_ - window_ + 1 : 0;
        Cycle c = desired < floor ? floor : desired;
        Span *s = spans_.get();
        // Spans wholly below the floor can never be probed again. Slide
        // the live ones down once the dead prefix outgrows them, so the
        // touched storage stays about twice the live spans.
        while (head_ < tail_ && s[head_].end <= floor)
            ++head_;
        if (head_ != 0 && (head_ >= tail_ - head_ || tail_ == capacity_)) {
            std::copy(s + head_, s + tail_, s);
            tail_ -= head_;
            head_ = 0;
        }

        // i: first span ending after c. Requests at or past the last
        // span (the common, in-order case) skip the search.
        size_t i = tail_;
        if (i != head_ && s[tail_ - 1].end > c)
            i = static_cast<size_t>(
                std::partition_point(s + head_, s + tail_,
                                     [c](const Span &span) {
                                         return span.end <= c;
                                     }) -
                s);
        Cycle start = c;
        if (i != tail_ && s[i].begin <= c)
            start = s[i++].end; // c is busy: first free is past it
        if (slots == 0) {
            if (start > maxSeen_)
                maxSeen_ = start;
            return start;
        }

        // Take free gaps from `start`, hopping over spans [i, j), until
        // `slots` cycles are taken; the last one taken is end - 1.
        size_t j = i;
        Cycle pos = start;
        Cycle remaining = slots;
        while (j != tail_ && s[j].begin - pos < remaining) {
            remaining -= s[j].begin - pos;
            pos = s[j++].end;
        }
        Cycle end = pos + remaining;
        if (end - 1 > maxSeen_)
            maxSeen_ = end - 1;

        // [start, end) is now busy throughout: merge it with the spans
        // it covers and with any span it touches on either side.
        Span merged{start, end};
        if (j != tail_ && s[j].begin == end)
            merged.end = s[j++].end;
        if (i != head_ && s[i - 1].end == start)
            merged.begin = s[--i].begin;
        if (i == j) {
            CATCHSIM_ASSERT(tail_ < capacity_, "timeline span overflow");
            std::copy_backward(s + i, s + tail_, s + tail_ + 1);
            ++tail_;
        } else if (j - i > 1) {
            std::copy(s + j, s + tail_, s + i + 1);
            tail_ -= j - i - 1;
        }
        s[i] = merged;
        return start;
    }

  private:
    struct Span
    {
        Cycle begin; ///< first busy cycle
        Cycle end;   ///< one past the last busy cycle
    };

    Cycle window_;
    size_t capacity_;
    /// Live spans are [head_, tail_): sorted, disjoint, never adjacent.
    std::unique_ptr<Span[]> spans_;
    size_t head_ = 0;
    size_t tail_ = 0;
    Cycle maxSeen_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_ISSUE_CALENDAR_HH_
