#include "sim/stats_io.hh"

#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/logging.hh"

namespace regless::sim
{

namespace
{

/**
 * Internal parse failure. Thrown by the reader so callers choose the
 * policy: fromJson() converts it to fatal(), tryFromJson() to false.
 */
struct JsonParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

template <typename... Args>
[[noreturn]] void
parseFail(Args &&...args)
{
    throw JsonParseError(
        detail::formatMessage(std::forward<Args>(args)...));
}

/** Minimal JSON object writer: key ordering is emission order. */
class JsonObject
{
  public:
    explicit JsonObject(std::ostream &os) : _os(os) { _os << "{"; }

    ~JsonObject() { _os << "}"; }

    /** Start the next member, keyed by the concatenation of @a parts;
     *  its value() follows. */
    template <typename... Parts>
    JsonObject &
    key(const Parts &...parts)
    {
        _os << (_first ? "\"" : ",\"");
        _first = false;
        (_os << ... << parts);
        _os << "\":";
        return *this;
    }

    void
    value(std::string_view text)
    {
        _os << "\"";
        for (char c : text) {
            if (c == '"' || c == '\\')
                _os << '\\';
            _os << c;
        }
        _os << "\"";
    }

    void value(ProviderKind kind) { value(providerName(kind)); }

    void value(std::unsigned_integral auto count) { _os << count; }

    void value(double number) { _os << number; }

    void
    value(const std::vector<double> &values)
    {
        _os << "[";
        for (std::size_t i = 0; i < values.size(); ++i)
            _os << (i ? "," : "") << values[i];
        _os << "]";
    }

  private:
    std::ostream &_os;
    bool _first = true;
};

using StallSlots = std::array<std::uint64_t, arch::kNumStallCauses>;

const char *
causeName(std::size_t c)
{
    return arch::stallCauseName(static_cast<arch::StallCause>(c));
}

/**
 * Field-list visitor emitting each field into an open object, keys
 * prefixed by @a prefix ("" for a run, "tenant<t>_" for a lane).
 */
struct FieldWriter
{
    JsonObject &obj;
    std::string_view prefix;

    bool
    operator()(auto tag, const auto &value) const
    {
        obj.key(prefix, tag.key).value(value);
        return false;
    }

    bool
    operator()(auto tag, const StallSlots &slots) const
    {
        for (std::size_t c = 0; c < slots.size(); ++c)
            obj.key(prefix, tag.key, causeName(c)).value(slots[c]);
        return false;
    }

    bool
    operator()(auto tag, const std::vector<TenantLane> &lanes) const
    {
        // Lanes are emitted only when present, so single-tenant JSON
        // stays byte-identical to pre-tenant builds.
        if (lanes.empty())
            return false;
        obj.key(prefix, tag.key, "_count").value(lanes.size());
        for (std::size_t t = 0; t < lanes.size(); ++t) {
            const std::string lane_prefix =
                std::string(tag.key) + std::to_string(t) + "_";
            forEachField(FieldWriter{obj, lane_prefix}, lanes[t]);
        }
        return false;
    }
};

/** Parse @a text as a double, failing unless it is all consumed. */
double
parseReal(std::string_view text)
{
    char *end = nullptr;
    const double value = std::strtod(text.data(), &end);
    if (end != text.data() + text.size())
        parseFail("stats JSON: '", text, "' is not a number");
    return value;
}

/** One parsed key-value pair; the typed accessors fail the parse on
 *  a value of the wrong kind. */
struct JsonMember
{
    enum class Kind
    {
        String,
        Number,
        Array,
    } kind = Kind::String;
    std::string key;
    std::string str;
    std::string_view num; ///< a number's text, parsed by its reader
    std::vector<double> array;

    const std::string &
    string() const
    {
        if (kind != Kind::String)
            parseFail("stats JSON: '", key, "' must be a string");
        return str;
    }

    /** An exact unsigned integer: no sign, fraction, exponent or
     *  overflow, so a hostile count cannot wrap, truncate, or size a
     *  container. */
    template <std::unsigned_integral T>
    T
    count() const
    {
        T out{};
        const char *end = num.data() + num.size();
        const auto [ptr, ec] = std::from_chars(num.data(), end, out);
        if (kind != Kind::Number || ec != std::errc() || ptr != end)
            parseFail("stats JSON: '", key,
                      "' must be an unsigned integer");
        return out;
    }

    double
    real() const
    {
        if (kind != Kind::Number)
            parseFail("stats JSON: '", key, "' must be a number");
        return parseReal(num);
    }

    const std::vector<double> &
    reals() const
    {
        if (kind != Kind::Array)
            parseFail("stats JSON: '", key, "' must be an array");
        return array;
    }
};

/**
 * Single-pass parser for the flat writeJson() schema: one object of
 * string / number / array-of-number values. Dispatches each member
 * to a callback as it is read.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : _text(text) {}

    void
    skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    char
    peek()
    {
        skipSpace();
        if (_pos >= _text.size())
            parseFail("stats JSON: unexpected end of input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            parseFail("stats JSON: expected '", c, "' at offset ", _pos,
                  ", found '", _text[_pos], "'");
        ++_pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (_pos < _text.size() && _text[_pos] != '"') {
            char c = _text[_pos++];
            if (c == '\\') {
                if (_pos >= _text.size())
                    parseFail("stats JSON: dangling escape");
                c = _text[_pos++];
            }
            out.push_back(c);
        }
        if (_pos >= _text.size())
            parseFail("stats JSON: unterminated string");
        ++_pos; // closing quote
        return out;
    }

    /** One number's text; the field it belongs to parses it as an
     *  exact count or as a double. */
    std::string_view
    numberText()
    {
        skipSpace();
        const std::size_t begin = _pos;
        while (_pos < _text.size() &&
               (std::isalnum(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '-' || _text[_pos] == '+' ||
                _text[_pos] == '.'))
            ++_pos;
        if (_pos == begin)
            parseFail("stats JSON: expected a number at offset ", _pos);
        return std::string_view(_text).substr(begin, _pos - begin);
    }

    std::vector<double>
    parseNumberArray()
    {
        expect('[');
        std::vector<double> out;
        if (peek() == ']') {
            ++_pos;
            return out;
        }
        for (;;) {
            out.push_back(parseReal(numberText()));
            char c = peek();
            ++_pos;
            if (c == ']')
                return out;
            if (c != ',')
                parseFail("stats JSON: expected ',' or ']' in array");
        }
    }

    template <typename Fn>
    void
    parseObject(Fn &&on_member)
    {
        expect('{');
        if (peek() == '}') {
            ++_pos;
            return;
        }
        for (;;) {
            JsonMember m;
            m.key = parseString();
            expect(':');
            char c = peek();
            if (c == '"') {
                m.kind = JsonMember::Kind::String;
                m.str = parseString();
            } else if (c == '[') {
                m.kind = JsonMember::Kind::Array;
                m.array = parseNumberArray();
            } else {
                m.kind = JsonMember::Kind::Number;
                m.num = numberText();
            }
            on_member(m);
            c = peek();
            ++_pos;
            if (c == '}')
                return;
            if (c != ',')
                parseFail("stats JSON: expected ',' or '}' in object");
        }
    }

  private:
    const std::string &_text;
    std::size_t _pos = 0;
};

/**
 * Field-list visitor reading one member into the field that owns it;
 * returns true (stopping the walk) once it has. Shared by the plain
 * RunStats reader and the JobRecord reader.
 */
struct FieldReader
{
    const JsonMember &m;
    std::string_view key; ///< m.key less any lane prefix
    /** "tenant_count" so far; lanes are checked against it. */
    std::uint64_t &tenantCount;

    void read(std::string &out) const { out = m.string(); }

    void
    read(ProviderKind &out) const
    {
        if (!tryProviderFromName(m.string(), out))
            parseFail("stats JSON: unknown provider '", m.str, "'");
    }

    template <std::unsigned_integral T>
    void
    read(T &out) const
    {
        out = m.count<T>();
    }

    void read(double &out) const { out = m.real(); }

    void read(std::vector<double> &out) const { out = m.reals(); }

    bool
    operator()(auto tag, auto &out) const
    {
        if (key != tag.key)
            return false;
        read(out);
        return true;
    }

    /** Derived keys are recomputed, never read. */
    bool
    operator()(field::Derived tag, double) const
    {
        return key == tag.key;
    }

    bool
    operator()(auto tag, StallSlots &slots) const
    {
        if (!key.starts_with(tag.key))
            return false;
        const std::string_view cause = key.substr(tag.key.size());
        for (std::size_t c = 0; c < slots.size(); ++c) {
            if (cause == causeName(c)) {
                slots[c] = m.count<std::uint64_t>();
                break;
            }
        }
        return true; // unknown causes are ignored
    }

    /** "<prefix>_count", then "<prefix><t>_<field>" for t = 0, 1, ...
     *  in order: lanes are appended one at a time, never sized from
     *  the (untrusted) count. */
    bool
    operator()(auto tag, std::vector<TenantLane> &lanes) const
    {
        if (!key.starts_with(tag.key))
            return false;
        const std::string_view rest = key.substr(tag.key.size());
        if (rest == "_count") {
            tenantCount = m.count<std::uint64_t>();
            return true;
        }
        std::size_t t = 0;
        const char *end = rest.data() + rest.size();
        const auto [sep, ec] = std::from_chars(rest.data(), end, t);
        if (ec != std::errc() || sep == end || *sep != '_')
            return false; // not a lane key
        if (t >= tenantCount || t > lanes.size() || t + 1 < lanes.size())
            parseFail("stats JSON: tenant lane ", t,
                      " out of order or past tenant_count ",
                      tenantCount);
        if (t == lanes.size())
            lanes.emplace_back();
        forEachField(FieldReader{m, std::string_view(sep + 1, end),
                                 tenantCount},
                     lanes[t]);
        return true;
    }
};

/** Every lane promised by "tenant_count" must have arrived. */
void
checkLanes(const RunStats &stats, std::uint64_t tenant_count)
{
    if (stats.tenants.size() != tenant_count)
        parseFail("stats JSON: tenant_count ", tenant_count, " but ",
                  stats.tenants.size(), " lanes");
}

RunStats
parseRun(JsonReader &reader)
{
    RunStats stats;
    std::uint64_t tenant_count = 0;
    reader.parseObject([&](const JsonMember &m) {
        forEachField(FieldReader{m, m.key, tenant_count}, stats);
    });
    checkLanes(stats, tenant_count);
    return stats;
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::Deadlocked:
        return "deadlocked";
      case JobStatus::Skipped:
        return "skipped";
    }
    return "?";
}

bool
tryJobStatusFromName(const std::string &name, JobStatus &out)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed,
                        JobStatus::Deadlocked, JobStatus::Skipped}) {
        if (name == jobStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

void
writeJson(std::ostream &os, const RunStats &stats)
{
    // Full precision so doubles survive a write -> read round-trip.
    const auto saved = os.precision(
        std::numeric_limits<double>::max_digits10);

    {
        JsonObject obj(os);
        forEachField(FieldWriter{obj, ""}, stats);
    }

    os.precision(saved);
}

void
writeJson(std::ostream &os, const std::vector<RunStats> &runs)
{
    os << "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i)
            os << ",";
        writeJson(os, runs[i]);
    }
    os << "]";
}

std::string
toJson(const RunStats &stats)
{
    std::ostringstream oss;
    writeJson(oss, stats);
    return oss.str();
}

RunStats
fromJson(const std::string &json)
{
    RunStats stats;
    std::string error;
    if (!tryFromJson(json, stats, &error))
        fatal(error);
    return stats;
}

bool
tryFromJson(const std::string &json, RunStats &out, std::string *error)
{
    try {
        JsonReader reader(json);
        out = parseRun(reader);
        return true;
    } catch (const JsonParseError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

void
writeJson(std::ostream &os, const JobRecord &record)
{
    const auto saved = os.precision(
        std::numeric_limits<double>::max_digits10);
    {
        // record_* first so a human (or grep) sees the outcome before
        // the stats body. The error/deadlock strings may span lines;
        // our reader accepts raw newlines inside strings (this is a
        // private round-trip format, not interchange JSON).
        JsonObject obj(os);
        obj.key("record_schema").value(record.schema);
        obj.key("record_status").value(jobStatusName(record.status));
        obj.key("record_error").value(record.error);
        obj.key("record_deadlock").value(record.deadlock);
        obj.key("record_attempts").value(record.attempts);
        forEachField(FieldWriter{obj, ""}, record.stats);
    }
    os.precision(saved);
}

bool
tryRecordFromJson(const std::string &json, JobRecord &out,
                  std::string *error)
{
    try {
        JobRecord record;
        bool saw_schema = false, saw_status = false;
        std::uint64_t tenant_count = 0;
        JsonReader reader(json);
        reader.parseObject([&](const JsonMember &m) {
            if (m.key == "record_schema") {
                record.schema = m.count<unsigned>();
                saw_schema = true;
            } else if (m.key == "record_status") {
                if (!tryJobStatusFromName(m.string(), record.status))
                    parseFail("stats JSON: unknown record status '",
                              m.str, "'");
                saw_status = true;
            } else if (m.key == "record_error") {
                record.error = m.string();
            } else if (m.key == "record_deadlock") {
                record.deadlock = m.string();
            } else if (m.key == "record_attempts") {
                record.attempts = m.count<unsigned>();
            } else {
                forEachField(FieldReader{m, m.key, tenant_count},
                             record.stats);
            }
        });
        checkLanes(record.stats, tenant_count);
        if (!saw_schema || !saw_status) {
            parseFail("stats JSON: not a job record (pre-watchdog "
                      "cache entry?)");
        }
        out = std::move(record);
        return true;
    } catch (const JsonParseError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

std::vector<RunStats>
runsFromJson(const std::string &json)
{
    try {
        JsonReader reader(json);
        std::vector<RunStats> runs;
        reader.expect('[');
        if (reader.peek() == ']')
            return runs;
        for (;;) {
            runs.push_back(parseRun(reader));
            char c = reader.peek();
            if (c == ']')
                return runs;
            if (c != ',')
                parseFail(
                    "stats JSON: expected ',' or ']' between runs");
            // consume the comma
            reader.expect(',');
        }
    } catch (const JsonParseError &e) {
        fatal(e.what());
    }
}

} // namespace regless::sim
