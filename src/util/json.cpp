#include "util/json.h"

#include <cctype>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <utility>

namespace hsw::json {
namespace {

class FlatParser {
 public:
  FlatParser(const std::string& text, std::map<std::string, std::string>& out)
      : text_(text), out_(out) {}

  bool parse() {
    skip_ws();
    if (!value("")) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value(const std::string& path) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(path);
    if (c == '[') return array(path);
    if (c == '"') {
      std::string s;
      if (!string(&s)) return false;
      out_[path] = s;
      return true;
    }
    return scalar(path);
  }

  bool object(const std::string& path) {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      if (!value(path.empty() ? key : path + "." + key)) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(const std::string& path) {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    std::size_t index = 0;
    while (true) {
      if (!value(path + "." + std::to_string(index++))) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string(std::string* out) {
    if (peek() != '"') return false;
    ++pos_;
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char e = text_[pos_++];
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
      }
      s += c;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    *out = std::move(s);
    return true;
  }

  bool scalar(const std::string& path) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out_[path] = text_.substr(start, pos_ - start);
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::map<std::string, std::string>& out_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_flat(const std::string& text,
                std::map<std::string, std::string>* out) {
  out->clear();
  FlatParser parser(text, *out);
  return parser.parse();
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

void appendf(std::string& out, const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  if (n < 0) {
    va_end(again);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, format,
                   again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

}  // namespace hsw::json
