#pragma once

struct WarmConfig {
    unsigned ways = 8;
    unsigned latency = 5;
    unsigned newKnob = 0;
    unsigned intervalInstrs = 20000;
};

class FastForward {
  public:
    void warm(int pos);

  private:
    WarmConfig cfg_;
    int state_ = 0;
};
