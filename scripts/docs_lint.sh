#!/usr/bin/env bash
# docs_lint.sh — keep the prose honest.
#
# Six checks over the repo's markdown:
#
#   1. Every fenced ```go block in README.md and ARCHITECTURE.md must
#      parse. Full files (starting with "package") are fed to gofmt
#      as-is; fragments get their import lines hoisted and the rest
#      wrapped in a throwaway func body, so expression- and
#      statement-level snippets are checked without having to compile
#      (undefined identifiers are fine, syntax errors are not).
#
#   2. Every `go run ./cmd/NAME ... -flag` line in a fenced sh/text
#      block must name flags the command actually registers — the drift
#      that creeps in when a flag is renamed but the README keeps the
#      old spelling.
#
#   3. Every inline code span that starts with -name (`-ttl`,
#      `-log-level {debug,...}`) must name a flag some command
#      registers, or a `go test` flag from a short allowlist — the same
#      drift in prose, where no command is named.
#
#   4. Every inline code span of the form `pkg.Ident` (`core.Collect`,
#      `hub.OfferBatch(id, values)`), where pkg is one of the repo's
#      package names and Ident is exported, must name a function,
#      method, type, var or const that non-test Go of a package by that
#      name declares — so prose cannot go on citing deleted code. A span
#      `pkg.Type.Method` (`stats.Run.FoldPairs`) must name a method that
#      such a package declares on Type, or lists in interface Type.
#
#   5. Every inline code span of the form `Type.Member`
#      (`Engine.OfferBatch`, `Gauge.Set`), where some non-test Go in
#      the module declares the exported type Type, must name a method
#      or field that some type of that name declares — the check-4 rule
#      for prose that leaves the package implicit.
#
#   6. Every sampled_* metric name in an inline code span
#      (`sampled_ingest_frames_total`, `sampled_ingest_decode_seconds{wire}`)
#      must be a family that non-test Go registers, read with a
#      histogram's _bucket, _count or _sum suffix removed; a name ending
#      in * (`sampled_hurst_*`) must prefix at least one registered
#      family. A family is registered by a "sampled_name" string
#      literal, or built as prefix+"_name" by an internal/obs helper to
#      which a non-test caller passes the literal prefix "sampled".
#
# A flag counts as registered only through a flag-set call in a
# command's non-test sources — fs.X("name", ...) or fs.XVar(&v,
# "name", ...) — not through any string literal that happens to match.
#
# Run from the repo root: ./scripts/docs_lint.sh
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

docs=(README.md ARCHITECTURE.md)
fail=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# registered_flags DIR... prints the flags the commands in DIR...
# register, one per line.
registered_flags() {
	local dir
	for dir in "$@"; do
		find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
			xargs -0 -r grep -hoE 'fs\.[A-Z][A-Za-z0-9]*\((&[^,]+, *)?"[^"]+"'
	done | sed -E 's/.*"([^"]+)"$/\1/' | sort -u
}

# --- 1. go snippets must parse -------------------------------------------

extract_go_blocks() { # file -> writes numbered snippet files into $tmp
	awk -v out="$tmp/$(basename "$1")" '
		/^```go$/   { in_block = 1; n++; snippet = out "." n ".go"; next }
		/^```/      { in_block = 0; next }
		in_block    { print > snippet }
	' "$1"
}

for doc in "${docs[@]}"; do
	extract_go_blocks "$doc"
done

shopt -s nullglob
for snippet in "$tmp"/*.go; do
	if head -1 "$snippet" | grep -q '^package '; then
		candidate="$snippet"
	else
		# Hoist imports, wrap the rest so statements/expressions parse.
		candidate="$snippet.wrapped"
		{
			echo 'package snippet'
			grep -E '^import ' "$snippet" || true
			echo 'func _() {'
			grep -Ev '^import ' "$snippet"
			echo '}'
		} >"$candidate"
	fi
	if ! err=$(gofmt -e "$candidate" 2>&1 >/dev/null); then
		echo "docs_lint: go snippet does not parse: ${snippet#"$tmp"/}"
		echo "$err" | sed 's/^/  /'
		fail=1
	fi
done

# --- 2. README flags must exist in the named command ---------------------

# Lines like `go run ./cmd/sampled -addr :8080 -ttl 10m` — each -flag
# must be registered by cmd/NAME.
while read -r line; do
	cmd=$(sed -E 's|.*go run \./cmd/([a-z]+).*|\1|' <<<"$line")
	[ -d "cmd/$cmd" ] || continue
	flags=$(registered_flags "cmd/$cmd")
	# Strip flag values so "-d '{...}'" payloads are not mistaken for flags.
	for flag in $(grep -oE ' -[a-zA-Z][a-zA-Z-]*' <<<"$line" | sed 's/^ -//' | sort -u); do
		if ! grep -qx -- "$flag" <<<"$flags"; then
			echo "docs_lint: flag -$flag not registered by cmd/$cmd (line: $line)"
			fail=1
		fi
	done
done < <(grep -h 'go run \./cmd/' "${docs[@]}" | grep ' -' | grep -v '^//')

# --- 3. flags named in prose must exist ----------------------------------

all_flags=$(registered_flags cmd/*/)
go_test_flags="benchtime"
for doc in "${docs[@]}"; do
	# Inline spans outside fenced blocks, paired left to right per line.
	for flag in $(awk '/^```/ { fence = !fence; next } !fence' "$doc" |
		grep -oE '`[^`]*`' | sed -nE 's/^`-([a-zA-Z][a-zA-Z0-9-]*).*/\1/p' | sort -u); do
		if ! grep -qx -- "$flag" <<<"$all_flags" && ! grep -qw -- "$flag" <<<"$go_test_flags"; then
			echo "docs_lint: $doc names -$flag, which no command registers"
			fail=1
		fi
	done
done

# --- 4. package identifiers named in prose must exist --------------------

pkg_names='core|lrd|stats|sampling|hub|wire|persist|cluster|estimate|obs|dsp|traffic|trace|dist|binenc|experiments'

# declared_idents PKG prints the package-level identifiers and method
# names that the non-test sources of every package whose name matches
# PKG declare, one per line, and each method and field as Type.Member:
# methods with a receiver, the methods an interface type lists, and the
# fields of a struct type (an embedded one under its type's name). A
# type also prints as "type Name".
declared_idents() {
	grep -rlE --include='*.go' --exclude='*_test.go' "^package $1\$" . |
		grep -vE '^\./[._]|/testdata/' |
		xargs -r awk '
			/^(const|var|type) \($/ { block = $1; next }
			block && /^\)/ { block = ""; next }
			block {
				if (match($0, /^\t[A-Za-z_][A-Za-z0-9_]*/)) {
					print substr($0, 2, RLENGTH - 1)
					if (block == "type") print "type " substr($0, 2, RLENGTH - 1)
				}
				next
			}
			iface && /^}/ { iface = ""; next }
			iface {
				if (match($0, /^\t[A-Za-z_][A-Za-z0-9_]*\(/)) print iface "." substr($0, 2, RLENGTH - 2)
				next
			}
			strct && /^}/ { strct = ""; next }
			strct {
				if (match($0, /^\t[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)* /)) {
					n = split(substr($0, 2, RLENGTH - 2), w, ", ")
					for (i = 1; i <= n; i++) print strct "." w[i]
				} else if (match($0, /^\t\*?[A-Za-z_][A-Za-z0-9_.]*$/)) {
					n = split($1, w, ".")
					sub(/^\*/, "", w[n])
					print strct "." w[n]
				}
				next
			}
			/^type [A-Za-z_][A-Za-z0-9_]* interface {$/ { iface = $2 }
			/^type [A-Za-z_][A-Za-z0-9_]* struct {$/ { strct = $2 }
			match($0, /^(func( \([^)]*\))?|type|var|const) [A-Za-z_][A-Za-z0-9_]*/) {
				n = split(substr($0, 1, RLENGTH), w, " ")
				print w[n]
				if (w[1] == "type") print "type " w[n]
				if (n > 2 && w[1] == "func") {
					recv = w[n - 1]
					sub(/\).*/, "", recv)
					sub(/^[(*]+/, "", recv)
					sub(/\[.*/, "", recv)
					print recv "." w[n]
				}
			}
		' | sort -u
}

for doc in "${docs[@]}"; do
	for ref in $(awk '/^```/ { fence = !fence; next } !fence' "$doc" |
		grep -oE '`[^`]*`' | sed -nE "s/^\`($pkg_names)\.([A-Z][A-Za-z0-9_]*)(\.[A-Za-z_][A-Za-z0-9_]*)?.*/\1.\2\3/p" | sort -u); do
		pkg=${ref%%.*}
		[ -f "$tmp/idents.$pkg" ] || declared_idents "$pkg" >"$tmp/idents.$pkg"
		if ! grep -qx -- "${ref#*.}" "$tmp/idents.$pkg"; then
			echo "docs_lint: $doc names \`$ref\`, which no non-test Go source of package $pkg declares"
			fail=1
		fi
	done
done

# --- 5. Type.Member spans must name a member of a declared type ---------

declared_idents '[a-z0-9_]+' >"$tmp/idents.all"
for doc in "${docs[@]}"; do
	for ref in $(awk '/^```/ { fence = !fence; next } !fence' "$doc" |
		grep -oE '`[^`]*`' | sed -nE 's/^`([A-Z][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*).*/\1/p' | sort -u); do
		grep -qx -- "type ${ref%%.*}" "$tmp/idents.all" || continue
		if ! grep -qx -- "$ref" "$tmp/idents.all"; then
			echo "docs_lint: $doc names \`$ref\`, but no type ${ref%%.*} in the module's non-test Go has a method or field ${ref#*.}"
			fail=1
		fi
	done
done

# --- 6. metric names named in prose must be registered -------------------

# registered_metrics prints every sampled_* family that non-test Go
# registers, one per line.
registered_metrics() {
	local helper
	find . -name '*.go' ! -name '*_test.go' ! -path './[._]*' ! -path '*/testdata/*' -print0 >"$tmp/gofiles"
	xargs -0 grep -hoE '"sampled_[a-z0-9_]+"' <"$tmp/gofiles" | tr -d '"'
	# The obs helpers called with the prefix "sampled", then the
	# prefix+"_name" literals in each helper's own body.
	for helper in $(xargs -0 grep -hoE 'obs\.[A-Za-z]+\([^,()]+, "sampled"' <"$tmp/gofiles" |
		sed -E 's/^obs\.([A-Za-z]+)\(.*/\1/' | sort -u); do
		find internal/obs -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
			xargs -0 awk -v fn="$helper" '$0 ~ "^func " fn "\\(" { body = 1 } body { print } body && /^}/ { body = 0 }' |
			grep -oE 'prefix *\+ *"_[a-z0-9_]+"' | sed -E 's/.*"_([a-z0-9_]+)"$/sampled_\1/'
	done
}

registered_metrics | sort -u >"$tmp/metrics"
for doc in "${docs[@]}"; do
	# Read line by line: a name ending in * must not glob.
	while read -r name; do
		if [[ $name == *'*' ]]; then
			grep -q -- "^${name%'*'}" "$tmp/metrics" && continue
		elif grep -qx -- "$name" "$tmp/metrics" ||
			grep -qx -- "$(sed -E 's/_(bucket|count|sum)$//' <<<"$name")" "$tmp/metrics"; then
			continue
		fi
		echo "docs_lint: $doc names metric \`$name\`, which no non-test Go registers"
		fail=1
	done < <(awk '/^```/ { fence = !fence; next } !fence' "$doc" |
		grep -oE '`[^`]*`' | grep -oE '[A-Za-z0-9_]*sampled_[a-z0-9_]*\*?' | { grep '^sampled_' || true; } | sort -u)
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "docs_lint: ${docs[*]} clean"
