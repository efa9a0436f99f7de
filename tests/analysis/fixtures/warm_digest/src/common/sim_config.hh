#pragma once

// Miniature field schema: 'ways' is tagged WarmVisible, 'latency' is
// not, and 'intervalInstrs' is a SamplingConfig field (re-keyed by the
// schedule digest).
template <FieldsOf<WarmConfig> C, typename V>
void
forEachField(C &c, V &v)
{
    v.field("ways", c.ways, FieldTag::WarmVisible);
    v.field("latency", c.latency);
}

template <FieldsOf<SamplingConfig> S, typename V>
void
forEachField(S &s, V &v)
{
    v.field("interval_instrs", s.intervalInstrs);
}
