#include "widget.hh"
struct W {
    void open() {}
    void close() {}
    void object(const char *) {}
    void field(const char *, int) {}
};
struct JsonReader {
    void field(const char *, int &) {}
};
namespace fx {
int widget()
{
    W w;
    w.open();
    w.object("l1");
    w.field("hits", 1);
    w.close();
    w.object("l2");
    w.field("hits", 2);
    w.close();
    w.close();
    return 0;
}
// Reads register nothing: a key read by two parsers is not a
// duplicate stat.
int parseA()
{
    JsonReader r;
    int v = 0;
    r.field("hits", v);
    return v;
}
int parseB(JsonReader &r)
{
    int v = 0;
    r.field("hits", v);
    return v;
}
}
