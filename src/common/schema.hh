/**
 * @file
 * Field schemas: one forEachField(obj, visitor) per exported struct
 * names every field once, with its JSON key, its JSON group and its
 * tag. JSON write and read, the result-store config digest and the
 * warmed-state digests all derive from these visitors, so a new field
 * is listed in exactly one place.
 *
 * Visitor protocol (JsonWriter and JsonReader in common/json.hh
 * implement it; tests add their own):
 *
 *   v.field(key, value, tag)   one scalar, enum or fixed-size array;
 *                              the tag defaults to FieldTag::None
 *   v.object(key) ... v.close()
 *                              a nested JSON object
 *   if (v.object(key, present)) { ...; v.close(); }
 *                              an optional nested object: written iff
 *                              @p present, and on read @p present says
 *                              whether the document carried it
 *   v.derived(key, value)      a write-only value computed from other
 *                              fields (a rate, a total); reads skip it
 *
 * A schema is a function template over the struct's constness, so the
 * same body feeds writers (const) and readers (mutable):
 *
 *   template <FieldsOf<CacheGeometry> G, typename V>
 *   void forEachField(G &g, V &v);
 *
 * Enums travel as integers bounded by an ADL-found enumMax(E); an enum
 * that also has an ADL-found enumName(E) travels as that name instead.
 */

#ifndef CATCHSIM_COMMON_SCHEMA_HH_
#define CATCHSIM_COMMON_SCHEMA_HH_

#include <concepts>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

namespace catchsim
{

/** What a field is, beyond its value. */
enum class FieldTag : uint8_t
{
    None,        ///< simulated content that warming cannot observe
    Label,       ///< a display name: never enters a content digest
    WarmVisible, ///< content that functional warming can observe
};

/** @p T is @p S, possibly const: the parameter type of a schema. */
template <typename T, typename S>
concept FieldsOf = std::same_as<std::remove_const_t<T>, S>;

/** An enum exported by name (enumName) rather than by number. */
template <typename E>
concept NamedEnum = std::is_enum_v<E> && requires(E e) {
    { enumName(e) } -> std::convertible_to<const char *>;
};

/** Visits @p sub's schema as the nested object @p key of @p v. */
template <typename V, typename S>
void
fieldObject(V &v, const char *key, S &sub)
{
    v.object(key);
    forEachField(sub, v);
    v.close();
}

/** The value of a named enum whose enumName is @p name, if any. */
template <NamedEnum E>
std::optional<E>
enumFromName(std::string_view name)
{
    for (uint64_t i = 0; i <= enumMax(E{}); ++i)
        if (name == enumName(static_cast<E>(i)))
            return static_cast<E>(i);
    return std::nullopt;
}

} // namespace catchsim

#endif // CATCHSIM_COMMON_SCHEMA_HH_
