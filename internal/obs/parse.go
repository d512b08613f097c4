package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Exposition-format validation. The server tests scrape /metrics through
// CheckText so a malformed line or a silently-vanished family fails CI
// instead of a production scrape. The grammar accepted here is
// the text exposition format 0.0.4 subset this package emits (plus
// summaries, so the checker stays honest against foreign registries).

// maxCheckLineBytes bounds one exposition line during validation.
const maxCheckLineBytes = 1 << 20

// CheckText validates a text-exposition stream and returns the set of
// family names it declares. It fails on: metric lines with unparseable
// values or malformed label blocks, samples that appear before their
// family's # TYPE line, and names outside the Prometheus grammar.
func CheckText(r io.Reader) (map[string]string, error) {
	families := make(map[string]string) // name -> type
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxCheckLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line, families); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := checkSample(line, families); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

func checkComment(line string, families map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		// Free-form comments are legal exposition; only HELP/TYPE carry
		// structure worth checking.
		return nil
	}
	name := fields[2]
	if !validExpoName(name) {
		return fmt.Errorf("%s for invalid metric name %q", fields[1], name)
	}
	if fields[1] == "TYPE" {
		if len(fields) < 4 {
			return fmt.Errorf("TYPE line for %q missing a type", name)
		}
		typ := strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("TYPE line for %q declares unknown type %q", name, typ)
		}
		families[name] = typ
	}
	return nil
}

func checkSample(line string, families map[string]string) error {
	name, rest := splitName(line)
	if !validExpoName(name) {
		return fmt.Errorf("sample %q has an invalid metric name", line)
	}
	rest = strings.TrimLeft(rest, " \t")
	if strings.HasPrefix(rest, "{") {
		var err error
		rest, err = consumeLabels(rest)
		if err != nil {
			return fmt.Errorf("sample %q: %w", line, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want 'name[{labels}] value [timestamp]'", line)
	}
	if err := checkValue(fields[0]); err != nil {
		return fmt.Errorf("sample %q: %w", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	base := familyBase(name, families)
	if _, ok := families[base]; !ok {
		return fmt.Errorf("sample %q appears before any # TYPE for %q", line, base)
	}
	return nil
}

// familyBase strips the histogram/summary suffix when the prefix is a
// declared family, so name_bucket/_sum/_count samples attach to name.
func familyBase(name string, families map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, declared := families[base]; declared {
				return base
			}
		}
	}
	return name
}

func splitName(line string) (name, rest string) {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '{' || c == ' ' || c == '\t' {
			return line[:i], line[i:]
		}
	}
	return line, ""
}

func validExpoName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// consumeLabels validates a {k="v",...} block and returns what follows it.
func consumeLabels(s string) (rest string, err error) {
	s = s[1:] // past '{'
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("label block missing '='")
		}
		key := strings.TrimSpace(s[:eq])
		if !validExpoName(key) || strings.Contains(key, ":") {
			return "", fmt.Errorf("invalid label name %q", key)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if !strings.HasPrefix(s, `"`) {
			return "", fmt.Errorf("label %q value is not quoted", key)
		}
		s = s[1:]
		for {
			i := strings.IndexAny(s, `"\`)
			if i < 0 {
				return "", fmt.Errorf("label %q value is unterminated", key)
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return "", fmt.Errorf("label %q value has a dangling escape", key)
				}
				s = s[i+2:]
				continue
			}
			s = s[i+1:]
			break
		}
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		return "", fmt.Errorf("label block expects ',' or '}' after a value")
	}
}

// checkValue accepts the exposition value grammar: Go float syntax plus
// +Inf/-Inf/NaN.
func checkValue(s string) error {
	switch s {
	case "+Inf", "-Inf", "NaN", "Nan", "nan", "inf", "+inf", "-inf":
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("bad value %q", s)
	}
	_ = math.Signbit(v)
	return nil
}
