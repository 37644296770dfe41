#include "compiler/finding.hh"

#include <cstdio>
#include <sstream>

namespace regless::compiler
{

namespace
{

void
appendJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

const char *
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

std::string
Finding::toString() const
{
    std::ostringstream oss;
    oss << severityName(severity) << '[' << code << ']';
    if (region != invalidRegion)
        oss << " region " << region;
    if (pc != invalidPc)
        oss << " pc " << pc;
    if (reg != invalidReg)
        oss << " r" << reg;
    oss << ": " << message;
    return oss.str();
}

std::string
Finding::toJson() const
{
    std::ostringstream oss;
    oss << "{\"code\":";
    appendJsonString(oss, code);
    oss << ",\"severity\":\"" << severityName(severity) << "\"";
    oss << ",\"region\":";
    if (region != invalidRegion)
        oss << region;
    else
        oss << "null";
    oss << ",\"pc\":";
    if (pc != invalidPc)
        oss << pc;
    else
        oss << "null";
    oss << ",\"reg\":";
    if (reg != invalidReg)
        oss << reg;
    else
        oss << "null";
    oss << ",\"message\":";
    appendJsonString(oss, message);
    oss << '}';
    return oss.str();
}

bool
hasErrors(const std::vector<Finding> &findings)
{
    for (const Finding &f : findings) {
        if (f.severity == Severity::Error)
            return true;
    }
    return false;
}

std::string
formatFindings(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += f.toString();
        out += '\n';
    }
    return out;
}

} // namespace regless::compiler
