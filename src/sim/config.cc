#include "config.hh"

#include <cctype>
#include <sstream>
#include <stdexcept>

namespace slf
{

namespace
{

/**
 * Run @p parse (a std::sto* call) over the whole of @p s. A parse that
 * throws, or stops short of the end, is a std::invalid_argument naming
 * @p key and the value.
 */
template <typename Parse>
auto
parseWhole(const std::string &key, const std::string &s, const char *what,
           Parse parse) -> decltype(parse(s, nullptr))
{
    std::size_t pos = 0;
    try {
        const auto v = parse(s, &pos);
        if (!s.empty() && pos == s.size())
            return v;
    } catch (const std::logic_error &) {
        // invalid_argument (no digits) or out_of_range: reported below.
    }
    throw std::invalid_argument("config key '" + key + "': bad " + what +
                                " '" + s + "'");
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::setInt(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::setUInt(const std::string &key, std::uint64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::setBool(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

void
Config::setDouble(const std::string &key, double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    values_[key] = oss.str();
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    return parseWhole(key, it->second, "integer",
                      [](const std::string &s, std::size_t *pos) {
                          return std::int64_t{std::stoll(s, pos, 0)};
                      });
}

std::uint64_t
Config::getUInt(const std::string &key, std::uint64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    return parseWhole(key, it->second, "integer",
                      [](const std::string &s, std::size_t *pos) {
                          // stoull skips blanks and takes a sign ("-5"
                          // wraps to 2^64-5): demand a leading digit.
                          if (!std::isdigit(static_cast<unsigned char>(s[0])))
                              return std::uint64_t{0};
                          return std::uint64_t{std::stoull(s, pos, 0)};
                      });
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    const std::string &s = it->second;
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    throw std::invalid_argument(
        "config key '" + key + "': bad boolean '" + s + "'");
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    return parseWhole(key, it->second, "number",
                      [](const std::string &s, std::size_t *pos) {
                          return std::stod(s, pos);
                      });
}

bool
Config::parseAssignment(const std::string &text)
{
    auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(text.substr(0, eq), text.substr(eq + 1));
    return true;
}

void
Config::parseAssignments(const std::vector<std::string> &assignments)
{
    for (const auto &a : assignments) {
        if (!parseAssignment(a)) {
            throw std::invalid_argument(
                "expected key=value assignment, got '" + a + "'");
        }
    }
}

void
Config::merge(const Config &other)
{
    for (const auto &kv : other.values_)
        values_[kv.first] = kv.second;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream oss;
    for (const auto &kv : values_)
        oss << kv.first << '=' << kv.second << '\n';
    return oss.str();
}

} // namespace slf
