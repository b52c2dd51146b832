// flowkv-lint: a dependency-free, token-level checker for the FlowKV
// contract the compiler cannot see end to end (docs/STATIC_ANALYSIS.md):
//
//  [flowkv-borrowed-slice-escape]
//    A RequestMessage filled by DecodeRequestBorrowed() aliases the
//    connection's rx buffer until OpRequest::MaterializeRefs() copies the
//    fields out (src/net/protocol.h). Storing, queueing, or lambda-capturing
//    such a message without an interceding MaterializeRefs() lets the borrow
//    outlive the buffer. Passing the message as a plain call argument —
//    including std::move(x) — is allowed: the handoff stays on this stack.
//
// A dropped flowkv::Status needs no lint: it is a compile error
// ([[nodiscard]] on Status plus -Werror=unused-result).
//
// Suppression: a line containing NOLINT(<check-name>) (or bare NOLINT)
// silences findings on that line. Every suppression in the real tree must be
// listed in docs/STATIC_ANALYSIS.md.
//
// Usage: flowkv_lint file...
// Exit status: 0 = clean, 1 = findings, 2 = usage/io error.
// Diagnostic format (one per line, stable, asserted by the fixtures):
//   <file>:<line>: [<check-name>] <message>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
};

// ---------------------------------------------------------------------------
// Source preparation: blank out comments and literals (preserving newlines
// and column positions) so the scanners never match inside them. NOLINT
// markers are harvested from comments before blanking.
// ---------------------------------------------------------------------------

struct CleanedFile {
  std::string path;
  std::string text;                       // literals/comments replaced by spaces
  std::set<std::pair<int, std::string>> nolint;  // (line, check) — check "" = all
};

void HarvestNolint(const std::string& comment, int line, CleanedFile* out) {
  const size_t pos = comment.find("NOLINT");
  if (pos == std::string::npos) {
    return;
  }
  const size_t open = comment.find('(', pos);
  if (open == std::string::npos) {
    out->nolint.insert({line, ""});
    return;
  }
  const size_t close = comment.find(')', open);
  std::string names = comment.substr(open + 1, close == std::string::npos
                                                   ? std::string::npos
                                                   : close - open - 1);
  std::stringstream ss(names);
  std::string name;
  while (std::getline(ss, name, ',')) {
    const size_t b = name.find_first_not_of(" \t");
    const size_t e = name.find_last_not_of(" \t");
    if (b != std::string::npos) {
      out->nolint.insert({line, name.substr(b, e - b + 1)});
    }
  }
}

bool CleanSource(const std::string& path, CleanedFile* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  out->path = path;
  out->text.assign(src.size(), ' ');
  int line = 1;
  size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      out->text[i] = '\n';
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      const size_t eol = src.find('\n', i);
      const size_t end = eol == std::string::npos ? src.size() : eol;
      HarvestNolint(src.substr(i, end - i), line, out);
      i = end;
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const size_t close = src.find("*/", i + 2);
      const size_t end = close == std::string::npos ? src.size() : close + 2;
      HarvestNolint(src.substr(i, end - i), line, out);
      for (; i < end; ++i) {
        if (src[i] == '\n') {
          out->text[i] = '\n';
          ++line;
        }
      }
    } else if (c == '"' && i + 2 < src.size() && src[i + 1] == '(' &&
               i > 0 && src[i - 1] == 'R') {
      // Raw string literal R"delim(...)delim" — find the introducer.
      size_t dstart = i + 1;
      size_t dend = src.find('(', dstart);
      std::string close_seq = ")" + src.substr(dstart, dend - dstart) + "\"";
      size_t close = src.find(close_seq, dend);
      size_t end = close == std::string::npos ? src.size() : close + close_seq.size();
      for (; i < end; ++i) {
        if (src[i] == '\n') {
          out->text[i] = '\n';
          ++line;
        }
      }
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;  // skip opening quote; keep the blank
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < src.size()) {
          ++i;
        }
        if (src[i] == '\n') {
          out->text[i] = '\n';  // unterminated literal; keep line counts sane
          ++line;
        }
        ++i;
      }
      ++i;  // closing quote
    } else {
      out->text[i] = c;
      ++i;
    }
  }
  return true;
}

bool Suppressed(const CleanedFile& f, int line, const std::string& check) {
  return f.nolint.count({line, check}) != 0 || f.nolint.count({line, ""}) != 0;
}

// ---------------------------------------------------------------------------
// Statement splitter: walks the cleaned text and yields statements — runs of
// tokens terminated by ';' (at paren depth 0), '{', or '}' — with per-char
// line numbers and the surrounding brace depth.
// ---------------------------------------------------------------------------

struct Statement {
  std::string text;
  std::vector<int> lines;  // lines[i] = source line of text[i]
  int depth = 0;           // brace depth at statement start
  char terminator = 0;     // ';', '{' or '}'
};

std::vector<Statement> SplitStatements(const CleanedFile& f) {
  std::vector<Statement> stmts;
  Statement cur;
  int line = 1;
  int brace_depth = 0;
  int paren_depth = 0;
  cur.depth = 0;
  auto flush = [&](char term) {
    cur.terminator = term;
    if (cur.text.find_first_not_of(" \n\t") != std::string::npos) {
      stmts.push_back(cur);
    }
    cur = Statement{};
    cur.depth = brace_depth;
  };
  for (char c : f.text) {
    if (c == '\n') {
      ++line;
      c = ' ';
    }
    if (c == '(') {
      ++paren_depth;
    } else if (c == ')') {
      --paren_depth;
    }
    if (c == '{' && paren_depth == 0) {
      flush('{');
      ++brace_depth;
      cur.depth = brace_depth;
    } else if (c == '}' && paren_depth == 0) {
      flush('}');
      --brace_depth;
      cur.depth = brace_depth;
    } else if (c == ';' && paren_depth == 0) {
      cur.text.push_back(c);
      cur.lines.push_back(line);
      flush(';');
    } else {
      cur.text.push_back(c);
      cur.lines.push_back(line);
    }
  }
  flush(';');
  return stmts;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ContainsWord(const std::string& text, const std::string& word) {
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !IsIdentChar(text[after]);
    if (left_ok && right_ok) {
      return true;
    }
    pos = after;
  }
  return false;
}

int LineOfWord(const Statement& s, const std::string& word) {
  size_t pos = 0;
  while ((pos = s.text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(s.text[pos - 1]);
    const size_t after = pos + word.size();
    const bool right_ok = after >= s.text.size() || !IsIdentChar(s.text[after]);
    if (left_ok && right_ok) {
      return s.lines[pos];
    }
    pos = after;
  }
  return s.lines.empty() ? 0 : s.lines.front();
}

// ---------------------------------------------------------------------------
// Check 1: flowkv-borrowed-slice-escape
// ---------------------------------------------------------------------------

const char kBorrowCheck[] = "flowkv-borrowed-slice-escape";

// Container member calls that move their argument somewhere that outlives
// the current statement.
const char* const kContainerSinks[] = {".push_back(",  ".emplace_back(", ".push(",
                                       ".push_front(", ".emplace(",      ".insert(",
                                       ".assign(",     ".emplace_front("};

// True if `text` contains a lambda whose capture list names `var`.
bool LambdaCaptures(const std::string& text, const std::string& var) {
  size_t pos = 0;
  while ((pos = text.find('[', pos)) != std::string::npos) {
    // A lambda-introducer '[' starts an expression: the previous non-space
    // char is not an identifier/')'/']' (those would make it a subscript).
    size_t prev = pos;
    while (prev > 0 && text[prev - 1] == ' ') {
      --prev;
    }
    const bool subscript =
        prev > 0 && (IsIdentChar(text[prev - 1]) || text[prev - 1] == ')' ||
                     text[prev - 1] == ']');
    const size_t close = text.find(']', pos);
    if (!subscript && close != std::string::npos &&
        ContainsWord(text.substr(pos, close - pos), var)) {
      return true;
    }
    pos = pos + 1;
  }
  return false;
}

// True if the statement stores `var` via a top-level assignment whose LHS is
// a member access (obj.field = x, ptr->field = x, field_ = x).
bool MemberStore(const std::string& text, const std::string& var) {
  int paren = 0;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[') {
      ++paren;
    } else if (c == ')' || c == ']') {
      --paren;
    } else if (paren == 0 && c == '=' && text[i + 1] != '=' &&
               (i == 0 || (text[i - 1] != '=' && text[i - 1] != '!' &&
                           text[i - 1] != '<' && text[i - 1] != '>' &&
                           text[i - 1] != '+' && text[i - 1] != '-' &&
                           text[i - 1] != '|' && text[i - 1] != '&'))) {
      const std::string lhs = text.substr(0, i);
      const std::string rhs = text.substr(i + 1);
      if (!ContainsWord(rhs, var)) {
        return false;
      }
      // Heap/member destinations: -> access, . access, or the trailing-_
      // member naming convention. A plain local-to-local copy propagates the
      // borrow instead (handled by the caller).
      if (lhs.find("->") != std::string::npos) {
        return true;
      }
      std::smatch m;
      static const std::regex member_re(R"(([A-Za-z_]\w*)\s*$)");
      if (std::regex_search(lhs, m, member_re)) {
        const std::string name = m[1];
        if (!name.empty() && name.back() == '_') {
          return true;
        }
        // obj.field on the LHS — but not var.field where var is the borrow
        // itself being written through (that is a plain field update).
        const size_t dot = lhs.find('.');
        if (dot != std::string::npos && !ContainsWord(lhs, var)) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

// True when the statement declares a local initialized from `var` (plain
// copy/move init), meaning the borrow propagates to a new name stored in
// *alias.
bool PropagatesTo(const std::string& text, const std::string& var, std::string* alias) {
  static const std::regex init_re(
      R"(^\s*(?:auto|RequestMessage|OpRequest)\s*[&]{0,2}\s+([A-Za-z_]\w*)\s*=)");
  std::smatch m;
  if (!std::regex_search(text, m, init_re)) {
    return false;
  }
  const std::string rhs = text.substr(static_cast<size_t>(m.position(0) + m.length(0)));
  if (!ContainsWord(rhs, var)) {
    return false;
  }
  *alias = m[1];
  return true;
}

struct Taint {
  std::string var;
  int depth = 0;  // brace depth where the borrow was created
};

void CheckBorrowedEscape(const CleanedFile& f, std::vector<Finding>* findings) {
  const std::vector<Statement> stmts = SplitStatements(f);
  std::vector<Taint> taints;
  static const std::regex decode_re(
      R"(DecodeRequestBorrowed\s*\([^;]*&\s*([A-Za-z_]\w*))");

  for (const Statement& s : stmts) {
    // Leaving a scope kills borrows created inside it.
    taints.erase(std::remove_if(taints.begin(), taints.end(),
                                [&](const Taint& t) { return s.depth < t.depth; }),
                 taints.end());

    // An interceding MaterializeRefs() materializes the in-flight message:
    // the borrow contract is restored for everything decoded so far.
    if (s.text.find("MaterializeRefs") != std::string::npos) {
      taints.clear();
      continue;
    }

    std::smatch m;
    std::string text = s.text;
    if (std::regex_search(text, m, decode_re)) {
      taints.push_back({m[1], s.depth});
      continue;
    }

    for (size_t ti = 0; ti < taints.size(); ++ti) {
      const std::string var = taints[ti].var;
      if (!ContainsWord(s.text, var)) {
        continue;
      }
      std::string alias;
      if (PropagatesTo(s.text, var, &alias)) {
        taints.push_back({alias, s.depth});
        break;  // taints was reallocated; re-entering next statement is fine
      }
      const int line = LineOfWord(s, var);
      std::string why;
      bool container = false;
      for (const char* sink : kContainerSinks) {
        const size_t pos = s.text.find(sink);
        if (pos != std::string::npos) {
          // The tainted var must be inside the sink call's argument list,
          // not merely elsewhere in the statement.
          const size_t open = s.text.find('(', pos);
          const size_t rest = open == std::string::npos ? pos : open;
          if (ContainsWord(s.text.substr(rest), var)) {
            container = true;
            why = "queued into a container";
          }
          break;
        }
      }
      if (!container && MemberStore(s.text, var)) {
        why = "stored into an object that outlives this frame";
      } else if (!container && LambdaCaptures(s.text, var)) {
        why = "captured by a lambda";
      }
      if (why.empty()) {
        continue;  // plain read or call-argument use: the handoff is inline
      }
      if (!Suppressed(f, line, kBorrowCheck)) {
        findings->push_back(
            {f.path, line, kBorrowCheck,
             "'" + var + "' holds borrowed slices from DecodeRequestBorrowed and is " +
                 why + "; call MaterializeRefs() on its ops first"});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "usage: flowkv_lint file...\n");
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "flowkv_lint: no input files\n");
    return 2;
  }

  std::vector<Finding> findings;
  for (const std::string& path : paths) {
    CleanedFile f;
    if (!CleanSource(path, &f)) {
      std::fprintf(stderr, "flowkv_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    CheckBorrowedEscape(f, &findings);
  }

  for (const Finding& fi : findings) {
    std::printf("%s:%d: [%s] %s\n", fi.file.c_str(), fi.line, fi.check.c_str(),
                fi.message.c_str());
  }
  return findings.empty() ? 0 : 1;
}
