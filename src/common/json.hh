/**
 * @file
 * Minimal JSON support for results, worker frames and result-store
 * records: an append-only writer with
 * deterministic field order, a small recursive-descent parser for the
 * subset the writer emits (objects, arrays, strings, numbers, booleans,
 * null), and one checked reader. The writer and the reader are also
 * the two JSON visitors of the field schemas (common/schema.hh), so
 * configToJson/configFromJson, SimResult::toJson/fromJson and the
 * hostPerf profile all encode and decode through them.
 *
 * Round-trip contract: u64 counters are written as decimal integers and
 * parsed back exactly; doubles are written with %.17g, which is enough
 * digits to reproduce the bit pattern on read-back. Store-served runs
 * and the byte-identical export goldens rest on this.
 */

#ifndef CATCHSIM_COMMON_JSON_HH_
#define CATCHSIM_COMMON_JSON_HH_

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/schema.hh"

namespace catchsim
{

/**
 * Append-only JSON builder, and the write visitor of every field schema
 * (common/schema.hh). Field order is fixed by call order so exports
 * diff cleanly run-to-run; doubles use %.17g (round-trippable).
 */
class JsonWriter
{
  public:
    /** Which schema fields field() emits. */
    enum class Select : uint8_t
    {
        All,         ///< every field
        Content,     ///< every field, Label fields blanked
        WarmVisible, ///< only FieldTag::WarmVisible fields
    };

    explicit JsonWriter(Select select = Select::All) : select_(select) {}

    void
    open()
    {
        out_ += '{';
        first_ = true;
    }

    void
    close()
    {
        out_ += '}';
        first_ = false;
    }

    void
    key(const char *name)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        out_ += '"';
        out_ += name;
        out_ += "\":";
    }

    /** One member: a string, bool, number, enum or fixed-size array. */
    template <typename T>
    void
    field(const char *name, const T &v, FieldTag tag = FieldTag::None)
    {
        if (select_ == Select::WarmVisible && tag != FieldTag::WarmVisible)
            return;
        key(name);
        if (select_ == Select::Content && tag == FieldTag::Label)
            value(std::string());
        else
            value(v);
    }

    /** Write-only member computed from other fields. */
    void derived(const char *name, double v) { field(name, v); }

    void
    object(const char *name)
    {
        key(name);
        open();
    }

    /** Optional nested object: opened iff @p present; see schema.hh. */
    bool
    object(const char *name, bool present)
    {
        if (present)
            object(name);
        return present;
    }

    /** Splices an already-serialised JSON document as a member. */
    void
    rawField(const char *name, const std::string &json)
    {
        key(name);
        out_ += json;
    }

    const std::string &str() const { return out_; }

  private:
    template <typename T>
    void
    value(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out_ += v ? "true" : "false";
        } else if constexpr (NamedEnum<T>) {
            value(std::string(enumName(v)));
        } else if constexpr (std::is_enum_v<T>) {
            value(static_cast<uint64_t>(v));
        } else if constexpr (std::is_integral_v<T>) {
            static_assert(std::is_unsigned_v<T>, "counters are unsigned");
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%" PRIu64, uint64_t(v));
            out_ += buf;
        } else if constexpr (std::is_floating_point_v<T>) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", double(v));
            out_ += buf;
        } else if constexpr (std::is_convertible_v<const T &,
                                                   std::string_view>) {
            out_ += '"';
            for (char c : std::string_view(v)) {
                if (c == '"' || c == '\\')
                    out_ += '\\';
                out_ += c;
            }
            out_ += '"';
        } else {
            static_assert(std::is_array_v<T>, "unsupported field type");
            out_ += '[';
            for (size_t i = 0; i < std::extent_v<T>; ++i) {
                if (i)
                    out_ += ',';
                value(v[i]);
            }
            out_ += ']';
        }
    }

    std::string out_;
    bool first_ = true;
    Select select_;
};

/**
 * Parsed JSON value. Unsigned integer tokens (digits only, at most
 * 2^64-1) are kept as exact u64 alongside the double view, so counters
 * survive the round trip bit-for-bit even above 2^53; every other
 * number (a sign, a fraction, an exponent, or too many digits) has
 * only the double view, and isU64() is false.
 */
class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    /** An exact unsigned integer token; asU64() is 0 otherwise. */
    bool isU64() const { return kind_ == Kind::Number && isInt_; }

    bool asBool() const { return b_; }
    uint64_t asU64() const { return u64_; }
    double asDouble() const { return isInt_ ? static_cast<double>(u64_) : d_; }
    const std::string &asString() const { return str_; }

    /** Object member by name; nullptr when absent or not an object. */
    const JsonValue *member(const std::string &name) const;
    /** Array element by index; nullptr when out of range / not array. */
    const JsonValue *at(size_t i) const;
    size_t size() const { return items_.size(); }

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool b_ = false;
    bool isInt_ = false;
    uint64_t u64_ = 0;
    double d_ = 0;
    std::string str_;
    std::vector<std::pair<std::string, JsonValue>> members_; // objects
    std::vector<JsonValue> items_;                           // arrays
};

/**
 * Checked reader over one parsed JSON object, and the read visitor of
 * every field schema (common/schema.hh). The first missing, wrong-kind
 * or out-of-range field records a SimError of the parser's category
 * and every later read becomes a no-op, so a parser reads
 * straight-line and checks error() once at the end.
 *
 * Reads are strict: an integer field takes only an exact integer token
 * within its type's range, a double must be finite, and an enum must
 * name (or number) one of its values.
 */
class JsonReader
{
  public:
    /**
     * @param category what every error is reported as
     * @param what names the document in messages ("SimResult JSON")
     */
    JsonReader(const JsonValue &doc, ErrorCategory category,
               const char *what);

    template <typename T>
    void
    field(const char *name, T &dst, FieldTag = FieldTag::None)
    {
        using Kind = JsonValue::Kind;
        if constexpr (std::is_same_v<T, bool>) {
            if (const JsonValue *m = fetch(name, Kind::Bool))
                dst = m->asBool();
        } else if constexpr (NamedEnum<T>) {
            std::string s;
            field(name, s);
            if (err_)
                return;
            if (auto e = enumFromName<T>(s))
                dst = *e;
            else
                fail("field '", name, "' has unknown value '", s,
                     "' in ", what_);
        } else if constexpr (std::is_enum_v<T>) {
            uint64_t n = 0;
            const JsonValue *m = fetch(name, Kind::Number);
            if (m && integer(name, *m, enumMax(T{}), n))
                dst = static_cast<T>(n);
        } else if constexpr (std::is_integral_v<T>) {
            uint64_t n = 0;
            const JsonValue *m = fetch(name, Kind::Number);
            if (m && integer(name, *m, std::numeric_limits<T>::max(), n))
                dst = static_cast<T>(n);
        } else if constexpr (std::is_floating_point_v<T>) {
            const JsonValue *m = fetch(name, Kind::Number);
            if (m && finite(name, *m))
                dst = m->asDouble();
        } else if constexpr (std::is_array_v<T>) {
            const JsonValue *m = fetch(name, Kind::Array);
            if (!m)
                return;
            if (m->size() != std::extent_v<T>) {
                fail("field '", name, "' has ", m->size(),
                     " elements, expected ", std::extent_v<T>, " in ",
                     what_);
                return;
            }
            for (size_t i = 0; i < std::extent_v<T>; ++i) {
                uint64_t n = 0;
                if (!integer(name, *m->at(i),
                             std::numeric_limits<
                                 std::remove_extent_t<T>>::max(),
                             n))
                    return;
                dst[i] = n;
            }
        } else {
            if (const JsonValue *m = fetch(name, Kind::String))
                dst = m->asString();
        }
    }

    /** Write-only members are skipped on read. */
    void derived(const char *, double) {}

    /** Descends into a required nested object until close(). */
    void object(const char *name);

    /** Descends into an optional nested object; @p present reports
     *  whether the document carries it (see schema.hh). */
    bool object(const char *name, bool &present);

    void close();

    /** The member @p name of kind @p kind, unconverted; nullptr (and
     *  the error latched) when it is missing or of another kind. */
    const JsonValue *raw(const char *name, JsonValue::Kind kind);

    /** The first error, if any read failed. */
    const std::optional<SimError> &error() const { return err_; }

  private:
    const JsonValue *fetch(const char *name, JsonValue::Kind kind);
    bool integer(const char *name, const JsonValue &m, uint64_t max,
                 uint64_t &out);
    bool finite(const char *name, const JsonValue &m);

    template <typename... Args>
    void
    fail(Args &&...args)
    {
        if (!err_)
            err_ = simError(category_, std::forward<Args>(args)...);
    }

    std::vector<const JsonValue *> stack_; ///< back() is the current object
    ErrorCategory category_;
    const char *what_;
    std::optional<SimError> err_;
};

/**
 * Parses one complete JSON document. Trailing garbage, truncation and
 * malformed syntax all return a trace-corrupt SimError naming the
 * offset, never UB — result-store and worker-frame readers depend on
 * damaged documents being rejected cleanly.
 */
Expected<JsonValue> parseJson(const std::string &text);

} // namespace catchsim

#endif // CATCHSIM_COMMON_JSON_HH_
