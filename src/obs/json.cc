#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "simcore/logging.hh"
#include "simcore/parse.hh"

namespace refsched::obs
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
ticksToUsecString(Tick ticks)
{
    const Tick whole = ticks / kPsPerUs;
    const Tick frac = ticks % kPsPerUs;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(whole),
                  static_cast<unsigned long long>(frac));
    return buf;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        fatal("JSON parse error at byte ", pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char ch)
    {
        if (peek() != ch)
            fail(std::string("expected '") + ch + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        const char ch = peek();
        switch (ch) {
        case '{':
            return objectValue();
        case '[':
            return arrayValue();
        case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = stringLiteral();
            return v;
        }
        case 't':
        case 'f': {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            if (consumeLiteral("true"))
                v.boolean = true;
            else if (consumeLiteral("false"))
                v.boolean = false;
            else
                fail("bad literal");
            return v;
        }
        case 'n': {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
        }
        default:
            return numberValue();
        }
    }

    JsonValue
    objectValue()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            if (peek() != '"')
                fail("object key must be a string");
            std::string key = stringLiteral();
            expect(':');
            v.object.emplace(std::move(key), value());
            const char ch = peek();
            if (ch == ',') {
                ++pos_;
                continue;
            }
            if (ch == '}') {
                ++pos_;
                return v;
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    arrayValue()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            const char ch = peek();
            if (ch == ',') {
                ++pos_;
                continue;
            }
            if (ch == ']') {
                ++pos_;
                return v;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    stringLiteral()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out += esc;
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                const char *hex = text_.data() + pos_;
                if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
                    fail("bad \\u escape");
                pos_ += 4;
                // Exporters only emit \u00xx control escapes; encode
                // the BMP code point as UTF-8 without surrogate
                // handling (sufficient for validation).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    numberValue()
    {
        skipWs();
        const std::size_t start = pos_;
        while (pos_ < text_.size()
               && std::string_view("+-.0123456789eE").find(text_[pos_])
                   != std::string_view::npos)
            ++pos_;
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = parseNumber<double>(
            std::string_view(text_).substr(start, pos_ - start),
            "JSON number");
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace refsched::obs
