#!/bin/sh
# End-to-end CLI integration test, run under ctest.
#   $1 = path to the locwm binary
#   $2 = repo source dir (optional; enables the SARIF validation step)
#   $3 = 0 when observability is compiled out (-DLOCWM_OBS=OFF): the
#        commands still run, but nothing checks their trace, stats or
#        metrics output
set -e
LW="$1"
SRC="$2"
OBS="${3:-1}"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

# Every found scheduling mark gets a Pc, exact or approximate: no detector
# output says "n/a" or "not enumerable", or carries a 1e-300 floor.
noPcGap() {
  if grep -E 'n/a|not enumerable|e-300' "$@"; then
    echo "Pc gap in $*" >&2
    exit 1
  fi
}

"$LW" gen lattice 6 -o core.cdfg
"$LW" info core.cdfg
"$LW" embed core.cdfg -i "CI Author" -n it-1 -o marked.cdfg -c cert.wmc --marks 2
"$LW" schedule marked.cdfg -o core.sched
"$LW" strip marked.cdfg -o published.cdfg
"$LW" verify-cert cert.wmc.0 cert.wmc.1 > verify.out
grep -q '^cert.wmc.1 .* sched: .*, Pc' verify.out
noPcGap verify.out
# ...and a damaged certificate is reported by the parser its header names,
# at the damaged line.
awk '!done && /^constraint / { print "constraint x y"; done = 1; next } { print }' \
    cert.wmc.0 > dmg.wmc
RC=0
"$LW" verify-cert cert.wmc.0 dmg.wmc > verify-dmg.out || RC=$?
test "$RC" -eq 1
grep -q '^cert.wmc.0 .* sched: 8-op locality' verify-dmg.out
grep -q '^dmg.wmc .* INVALID: certificate parse error at line 5: malformed constraint$' \
    verify-dmg.out

# Detection must succeed with the right key...
"$LW" detect published.cdfg core.sched cert.wmc.0 cert.wmc.1 -i "CI Author" -n it-1

# ...from a schedule that opens with a comment, as any artifact may...
{ echo '# schedule of the marked core'; cat core.sched; } > commented.sched
"$LW" detect published.cdfg commented.sched cert.wmc.0 -i "CI Author" -n it-1 \
    | grep -q DETECTED

# ...while a malformed schedule is an input error (exit 2), not a miss...
printf '0 1 2\n' > bad.sched
RC=0
"$LW" detect published.cdfg bad.sched cert.wmc.0 -i "CI Author" -n it-1 \
    > /dev/null 2> bad-sched.err || RC=$?
test "$RC" -eq 2
grep -q 'schedule parse error' bad-sched.err

# ...every certificate is parsed before any verdict is printed, so a bad
# one after a good one exits 2 with empty stdout...
printf 'not a certificate\n' > bad.wmc
RC=0
"$LW" detect published.cdfg core.sched cert.wmc.0 bad.wmc -i "CI Author" \
    -n it-1 > bad-cert.out 2> /dev/null || RC=$?
test "$RC" -eq 2
test ! -s bad-cert.out

# ...including quietly (exit code carries the verdict; stdout is empty)...
OUT=$("$LW" detect published.cdfg core.sched cert.wmc.0 -i "CI Author" -n it-1 -q)
test -z "$OUT"

# ...and with observability on: the trace is Chrome trace-event JSON and
# the stats snapshot carries counters, pass timings, and a schema stamp.
"$LW" detect published.cdfg core.sched cert.wmc.0 -i "CI Author" -n it-1 \
      --trace trace.json --stats stats.json --report 2> report.txt
if [ "$OBS" = 1 ]; then
  grep -q '"traceEvents"' trace.json
  grep -q '"counters"' stats.json
  grep -q '"passes"' stats.json
  grep -q '"schema_version"' stats.json
  grep -q 'core.sched_wm' stats.json
  grep -q 'calls' report.txt
fi

# Streaming telemetry: --metrics writes OpenMetrics text (EOF-terminated,
# with at least one latency summary), --events writes ndjson with dense
# sequence numbers starting at the meta line.
"$LW" detect published.cdfg core.sched cert.wmc.0 -i "CI Author" -n it-1 \
      --metrics metrics.txt --events events.ndjson
if [ "$OBS" = 1 ]; then
  grep -q '^# EOF$' metrics.txt
  grep -q '^# TYPE locwm_' metrics.txt
  grep -q 'quantile="0.99"' metrics.txt
  grep -q 'locwm_mem_peak_rss_kib' metrics.txt
  head -1 events.ndjson | grep -q '^{"seq":0,.*"type":"meta"'
  grep -q '"type":"span_end"' events.ndjson
fi

# The version command reports the build provenance triple.
"$LW" --version | grep -q '^locwm '
"$LW" version | grep -q '^locwm '

# Register-binding round trip.
"$LW" schedule published.cdfg -o pub.sched
"$LW" embed-reg published.cdfg pub.sched -i "CI Author" -n it-1 -c reg.wmc -o reg.bind
"$LW" verify-cert reg.wmc
"$LW" detect-reg published.cdfg pub.sched reg.bind reg.wmc -i "CI Author" -n it-1

# A binding entry's node is its whole first word, decimal digits only: a
# numeric prefix, a sign or a value beyond 32 bits is a malformed entry
# (exit 2 for detect-reg, an error for lint), never an alias of another
# node.
for WORD in 4294967296 0abc -4294967295; do
  { cat reg.bind; echo "$WORD 0"; } > alias.bind
  RC=0
  "$LW" detect-reg published.cdfg pub.sched alias.bind reg.wmc \
      -i "CI Author" -n it-1 > /dev/null 2> alias.err || RC=$?
  test "$RC" -eq 2
  grep -q "malformed entry '$WORD'" alias.err
  if "$LW" lint published.cdfg pub.sched alias.bind > alias-lint.out 2>&1; then
    echo "lint accepted binding node word '$WORD'" >&2
    exit 1
  fi
  grep -q "malformed entry '$WORD'" alias-lint.out
done

# Every derivation replays a root the fingerprint screen kept, and the
# screen keeps fewer roots than an unscreened replay would derive at.
counter() { sed -n "s/^ *\"$2\": *\([0-9]*\).*/\1/p" "$1"; }
screened() {
  [ "$OBS" = 1 ] || return 0
  D=$(counter "$1" core.locality.derive_calls)
  K=$(counter "$1" core.screen.survivors)
  R=$(counter "$1" core.screen.roots)
  test -n "$D" && test "$D" -eq "$K" && test "$K" -lt "$R" || {
    echo "$1: derive_calls=$D screen.survivors=$K screen.roots=$R" >&2
    exit 1
  }
}
"$LW" detect published.cdfg core.sched cert.wmc.0 cert.wmc.1 -i "CI Author" \
    -n it-1 --stats detect-stats.json > /dev/null
screened detect-stats.json
"$LW" detect-reg published.cdfg pub.sched reg.bind reg.wmc -i "CI Author" \
    -n it-1 --stats reg-stats.json > /dev/null
screened reg-stats.json

# Template-matching round trip.
"$LW" gen-lib -o lib.tml
"$LW" embed-tm published.cdfg -i "CI Author" -n it-1 -c tm.wmc -o tm.cover --lib lib.tml
"$LW" detect-tm published.cdfg tm.cover tm.wmc -i "CI Author" -n it-1 --lib lib.tml
"$LW" verify-cert tm.wmc
awk '!done && /^matching / { print "matching x"; done = 1; next } { print }' \
    tm.wmc > dmg-tm.wmc
RC=0
"$LW" verify-cert dmg-tm.wmc > verify-dmg-tm.out || RC=$?
test "$RC" -eq 1
grep -q 'INVALID: certificate parse error at line [0-9]*: malformed matching$' \
    verify-dmg-tm.out

# A cover pair's node is a whole 32-bit number: the first pair's node plus
# 2^32 is a malformed pair (exit 2 for detect-tm, an error for lint), never
# an alias of the node it wraps to.
FIRST=$(sed -n 's/^use [0-9]* \([0-9]*:[0-9]*\).*/\1/p' tm.cover | head -n 1)
test -n "$FIRST"
WIDE="$((${FIRST%%:*} + 4294967296)):${FIRST#*:}"
awk -v from=" $FIRST" -v to=" $WIDE" \
    '!done && /^use / { sub(from, to); done = 1 } { print }' tm.cover > wide.cover
RC=0
"$LW" detect-tm published.cdfg wide.cover tm.wmc -i "CI Author" -n it-1 \
    --lib lib.tml > /dev/null 2> wide.err || RC=$?
test "$RC" -eq 2
grep -q "malformed pair '$WIDE'" wide.err
if "$LW" lint published.cdfg lib.tml wide.cover > wide-lint.out 2>&1; then
  echo "lint accepted cover pair '$WIDE'" >&2
  exit 1
fi
grep -q "malformed pair '$WIDE'" wide-lint.out

# CRLF certificates read as their LF originals: every detector prints the
# same verdicts and Pc strings, with the same exit code.
mkdir crlf
for F in cert.wmc.0 cert.wmc.1 reg.wmc tm.wmc; do
  sed 's/$/\r/' "$F" > "crlf/$F"
done
detectAll() {
  "$LW" detect ../published.cdfg ../core.sched cert.wmc.0 cert.wmc.1 \
      -i "CI Author" -n it-1
  "$LW" detect-reg ../published.cdfg ../pub.sched ../reg.bind reg.wmc \
      -i "CI Author" -n it-1
  "$LW" detect-tm ../published.cdfg ../tm.cover tm.wmc -i "CI Author" \
      -n it-1 --lib ../lib.tml
}
mkdir lf
cp cert.wmc.0 cert.wmc.1 reg.wmc tm.wmc lf/
(cd lf && detectAll) > lf-detect.out
(cd crlf && detectAll) > crlf-detect.out
grep -q 'Pc<=' lf-detect.out
cmp lf-detect.out crlf-detect.out

# A schedule line that opens with a non-number is malformed, not blank:
# detect on the mpeg2 schedule with "abc 5" inserted exits 2, and
# single-file and workspace lint each report the line once (LW001).
"$LW" gen mediabench:mpeg2 -o mpeg2.cdfg
"$LW" embed mpeg2.cdfg -i "CI Author" -n it-1 -o mpeg2-marked.cdfg \
    -c mpeg2.wmc
"$LW" schedule mpeg2-marked.cdfg -o mpeg2.sched
"$LW" strip mpeg2-marked.cdfg -o mpeg2-pub.cdfg
"$LW" detect mpeg2-pub.cdfg mpeg2.sched mpeg2.wmc -i "CI Author" -n it-1 \
    > mpeg2-detect.out
"$LW" verify-cert mpeg2.wmc > mpeg2-verify.out
grep -q DETECTED mpeg2-detect.out
noPcGap mpeg2-detect.out mpeg2-verify.out
{ head -n 3 mpeg2.sched; echo 'abc 5'; tail -n +4 mpeg2.sched; } > abc.sched
RC=0
"$LW" detect mpeg2-pub.cdfg abc.sched mpeg2.wmc -i "CI Author" -n it-1 \
    > abc.out 2> abc.err || RC=$?
test "$RC" -eq 2
test ! -s abc.out
grep -q "line 4: malformed entry 'abc'" abc.err
test "$("$LW" lint mpeg2-pub.cdfg abc.sched | grep -c LW001)" -eq 1
mkdir abc-project
cp mpeg2-pub.cdfg abc.sched abc-project/
test "$("$LW" lint --project abc-project --no-cache | grep -c LW001)" -eq 1
# The diagnostic names the artifact once, not again inside its message.
RC=0
"$LW" lint mpeg2-pub.cdfg abc.sched dmg.wmc > abc-lint.out || RC=$?
test "$RC" -eq 1
grep -q "^abc.sched: error LW001: schedule parse error at line 4: malformed entry 'abc'$" \
    abc-lint.out
grep -q '^dmg.wmc: error LW001: certificate parse error at line 5: malformed constraint$' \
    abc-lint.out

# Both words of a schedule entry are whole numbers: "-4294967295 0", which
# an unsigned field would wrap to node 1, is a malformed entry, so detect
# exits 2 and single-file and workspace lint give the same LW001.
{ cat mpeg2.sched; echo '-4294967295 0'; } > wrap.sched
RC=0
"$LW" detect mpeg2-pub.cdfg wrap.sched mpeg2.wmc -i "CI Author" -n it-1 \
    > /dev/null 2> wrap.err || RC=$?
test "$RC" -eq 2
grep -q "malformed entry '-4294967295'" wrap.err
mkdir wrap-project
cp mpeg2-pub.cdfg wrap.sched wrap-project/
RC=0
"$LW" lint mpeg2-pub.cdfg wrap.sched > wrap-lint.out || RC=$?
test "$RC" -eq 1
RC=0
"$LW" lint --project wrap-project --no-cache > wrap-project.out || RC=$?
test "$RC" -eq 1
WRAP=$(sed -n 's/^wrap.sched: error LW001: //p' wrap-lint.out)
N=$(($(wc -l < wrap.sched)))
test "$WRAP" = "schedule parse error at line $N: malformed entry '-4294967295'"
test "$(sed -n 's/^wrap.sched: error LW001: //p' wrap-project.out)" = "$WRAP"

# DOT export parses as a digraph.
"$LW" dot published.cdfg -o out.dot
grep -q "digraph" out.dot

# Static analysis: the whole artifact chain lints clean (exit 0)...
"$LW" lint marked.cdfg core.sched cert.wmc.0 cert.wmc.1
"$LW" lint published.cdfg pub.sched reg.bind lib.tml tm.cover reg.wmc tm.wmc --werror

# ...quiet mode prints nothing on a clean run...
OUT=$("$LW" lint -q published.cdfg pub.sched)
test -z "$OUT"

# ...JSON output is machine-readable and carries the summary...
"$LW" lint --json published.cdfg pub.sched > lint.json
grep -q '"diagnostics"' lint.json
grep -q '"summary"' lint.json

# ...a corrupted artifact exits 1 and names a stable code...
awk '!done && /^edge /{ $3 = 999; done = 1 } { print }' \
    published.cdfg > broken.cdfg
if "$LW" lint broken.cdfg > lint.out 2>&1; then
  echo "lint accepted a dangling edge" >&2
  exit 1
fi
grep -q 'LW101' lint.out

# ...a NUL byte quoted in a finding does not cut the text report short:
# the finding after it and the summary line are still written.
printf 'ab\000cd\n' > nul.txt
RC=0
"$LW" lint nul.txt broken.cdfg > nul-lint.out || RC=$?
test "$RC" -eq 1
grep -q 'LW101' nul-lint.out
grep -q 'error(s)' nul-lint.out

# ...and missing context is an error, not a crash.
if "$LW" lint core.sched > /dev/null 2>&1; then
  echo "lint accepted a schedule without a design" >&2
  exit 1
fi

# ...zero artifacts is a usage error: usage on stderr, exit 2, empty stdout.
RC=0
"$LW" lint > zerolint.out 2> zerolint.err || RC=$?
test "$RC" -eq 2
test ! -s zerolint.out
grep -q 'which artifacts' zerolint.err
grep -q 'usage: locwm' zerolint.err

# ...an unrecognized artifact names the byte and offset that defeated
# sniffing.
printf '\n  @garbage here\n' > junk.txt
if "$LW" lint junk.txt > junk.out 2>&1; then
  echo "lint accepted an unrecognizable artifact" >&2
  exit 1
fi
grep -q 'LW002' junk.out
grep -q "first non-whitespace byte '@' (0x40) at offset 3" junk.out

# Workspace analysis: the whole directory lints through the manifest with
# a cold run filling the cache and a warm run serving 100% from it, both
# byte-identical — as is an uncached run at a different thread count.
mkdir ws
cp marked.cdfg published.cdfg core.sched pub.sched reg.bind lib.tml \
   tm.cover ws/
cat > ws/ws.manifest <<'EOF'
locwm-workspace v1
artifact marked.cdfg
artifact published.cdfg
artifact core.sched design=marked.cdfg
artifact pub.sched design=published.cdfg
artifact reg.bind schedule=pub.sched
artifact tm.cover design=published.cdfg library=lib.tml
artifact lib.tml
EOF
"$LW" lint --manifest ws/ws.manifest --cache ws.cache > ws-cold.out
grep -q '(0.0%)' ws-cold.out
"$LW" lint --manifest ws/ws.manifest --cache ws.cache > ws-warm.out
grep -q '(100.0%)' ws-warm.out
sed '$d' ws-cold.out > ws-cold.rep
sed '$d' ws-warm.out > ws-warm.rep
cmp ws-cold.rep ws-warm.rep
"$LW" lint --manifest ws/ws.manifest --no-cache --threads 2 > ws-t2.out
sed '$d' ws-t2.out > ws-t2.rep
cmp ws-cold.rep ws-t2.rep

# ...directory mode infers the references (and the manifest is skipped as
# an artifact): with two same-size designs the inference is ambiguous, and
# the analyzer says so instead of guessing silently.  The aggregated SARIF
# spans the whole workspace either way.
"$LW" lint --project ws --no-cache > ws-dir.out 2>&1 || true
grep -q 'LW803' ws-dir.out
"$LW" lint --project ws --no-cache --sarif -q > ws.sarif || true
grep -q '"version": "2.1.0"' ws.sarif

# ...a dangling workspace reference is a stable LW8xx error.
printf '99999 0\n' > ws/stray.sched
if "$LW" lint --project ws --no-cache > ws-bad.out 2>&1; then
  echo "workspace lint accepted a dangling reference" >&2
  exit 1
fi
grep -q 'LW802' ws-bad.out
rm ws/stray.sched

# Differential verification: the marked design is the original plus the
# certificates' temporal edges and nothing else (exit 0, watermark infos
# only)...
"$LW" diff core.cdfg marked.cdfg cert.wmc.0 cert.wmc.1 > diff.out
grep -q 'LW706' diff.out

# ...the published design carries no temporal edges, so against the
# original the diff is empty...
"$LW" diff core.cdfg published.cdfg -q

# ...and tampering (here: stripping the watermark edges, then swapping in
# a forged temporal edge) is an error with a stable LW7xx code.
awk '/ temporal$/ { if (!done) { $2 = 0; $3 = 1; done = 1; print; next } }
     { print }' marked.cdfg > tampered.cdfg
if "$LW" diff core.cdfg tampered.cdfg cert.wmc.0 > tamper.out 2>&1; then
  echo "diff accepted a tampered design" >&2
  exit 1
fi
grep -Eq 'LW70[0-9]' tamper.out

# SARIF export: both lint and diff render SARIF 2.1.0...
"$LW" lint --sarif marked.cdfg core.sched cert.wmc.0 > lint.sarif
"$LW" diff --sarif core.cdfg marked.cdfg cert.wmc.0 cert.wmc.1 -q > diff.sarif
grep -q '"version": "2.1.0"' lint.sarif
grep -q '"version": "2.1.0"' diff.sarif

# Lint baseline ratchet: --update-baseline records today's findings, and
# the same run is then clean under the baseline — even one that fails
# without it — while the baseline file itself is machine-readable.
"$LW" lint broken.cdfg --baseline base.json --update-baseline \
    > /dev/null 2>&1
grep -q '"schema_version"' base.json
grep -q 'LW101' base.json
"$LW" lint broken.cdfg --baseline base.json --werror

# Incremental delta: replay an ndjson edit stream, verifying the resident
# analyses against the full recompute after every commit.  The add-node op
# exercises the full-rebuild path; the trailing commit is implicit.
cat > edits.ndjson <<'EOF'
{"op": "add-edge", "src": 0, "dst": 1, "kind": "temporal"}
{"op": "commit"}
{"op": "remove-edge", "src": 0, "dst": 1, "kind": "temporal"}
{"op": "commit"}
{"op": "add-node", "kind": "add", "name": "fresh"}
EOF
"$LW" delta core.cdfg edits.ndjson --verify --json -o delta.cdfg \
    > delta.out 2> /dev/null
grep -q '"verified": true' delta.out
grep -q '"full_rebuild": true' delta.out
"$LW" info delta.cdfg

# ...and the edit stream defaults to stdin.
printf '{"op": "add-edge", "src": 0, "dst": 1, "kind": "temporal"}\n' \
    | "$LW" delta core.cdfg -q > /dev/null 2>&1

# ...a node id past 32 bits is an input error that leaves the design
# unchanged (it used to wrap and remove node 0), as is a negative one.
cp core.cdfg wrap.cdfg
for id in 4294967296 -1; do
  RC=0
  printf '{"op": "remove-node", "node": %s}\n' "$id" \
      | "$LW" delta wrap.cdfg -o wrap.cdfg > wrap.out 2> wrap.err || RC=$?
  test "$RC" -eq 2
  test ! -s wrap.out
  grep -q 'delta: line 1:' wrap.err
done
cmp core.cdfg wrap.cdfg

# Argument validation: malformed invocations exit 2 with empty stdout and
# a stderr that names the offending option or argument.
bad() {
  want="$1"
  shift
  RC=0
  "$LW" "$@" > bad.out 2> bad.err || RC=$?
  if [ "$RC" -ne 2 ] || [ -s bad.out ] || ! grep -q -- "$want" bad.err; then
    echo "locwm $*: exit $RC, expected 2 naming '$want'" >&2
    cat bad.out bad.err >&2
    exit 1
  fi
}
EMBED="embed core.cdfg -i A -n N -o x.cdfg -c x.wmc"
bad 'size' gen fir abc
bad '--marks' $EMBED --marks -1
bad '--deadline' $EMBED --deadline 4294967296
bad '--kfrac' $EMBED --kfrac nan
bad '--shard' scan ws --keys ring --shard 0/2x
bad '--threads' info core.cdfg --threads 4x
bad '--jsno' info core.cdfg --jsno x
bad "'extra'" info core.cdfg extra
bad '--deadline' schedule core.cdfg -o s.sched --deadline 9
bad '--resume' diff core.cdfg marked.cdfg cert.wmc.0 --resume s.txt

# Global options may precede the command: the prefix form of a scan is
# byte-identical to the suffix form, and an unknown leading option is still
# a usage error.
{
  echo 'locwm-keyring v1'
  for c in cert.wmc.0 cert.wmc.1 reg.wmc tm.wmc; do
    echo "key \"CI Author\" it-1 $c"
  done
} > scan.keyring
mkdir sc
cp published.cdfg sc/d0.cdfg
cp core.sched sc/d0.sched
cp core.cdfg sc/d1.cdfg
"$LW" scan sc --keys scan.keyring --no-cache --json -o scan-suffix.ndjson \
    --threads 4 --stats scan-suffix.json > scan-suffix.out
"$LW" --threads 4 --stats scan-prefix.json scan sc --keys scan.keyring \
    --no-cache --json -o scan-prefix.ndjson > scan-prefix.out
grep -q '"found":true' scan-prefix.ndjson
cmp scan-suffix.ndjson scan-prefix.ndjson
cmp scan-suffix.out scan-prefix.out
if [ "$OBS" = 1 ]; then
  for c in core.locality.derive_calls core.locality.contexts cdfg.ordering.runs; do
    test "$(counter scan-prefix.json $c)" -eq "$(counter scan-suffix.json $c)"
  done
fi

# A certificate may open with whole-line comments, as any artifact may:
# verify-cert, detect, lint and a key ring all read it as its original.
{ echo '# cert'; echo '  # of the marked core'; cat cert.wmc.0; } \
    > commented.wmc
"$LW" verify-cert commented.wmc | grep -q '^commented.wmc .* sched: 8-op'
"$LW" detect published.cdfg core.sched commented.wmc -i "CI Author" -n it-1 \
    | grep -q DETECTED
"$LW" lint marked.cdfg core.sched commented.wmc > /dev/null
{ echo 'locwm-keyring v1'; echo 'key "CI Author" it-1 commented.wmc'; } \
    > commented.keyring
"$LW" scan sc --keys commented.keyring --no-cache --json -o commented.ndjson \
    > /dev/null
grep -q '"cert":"commented.wmc","design":"d0.cdfg".*"found":true' \
    commented.ndjson

# A key ring with CRLF line ends scans as its LF original, and a quoted
# path or identity may hold a '#' (one outside quotes starts a comment).
awk '{ printf "%s\r\n", $0 }' scan.keyring > crlf.keyring
"$LW" scan sc --keys crlf.keyring --no-cache --json -o crlf.ndjson > crlf.out
cmp scan-suffix.ndjson crlf.ndjson
cmp scan-suffix.out crlf.out
cp cert.wmc.0 'mark #1.wmc'
{ echo 'locwm-keyring v1'; echo 'key "CI Author" it-1 "mark #1.wmc" # ours'; } \
    > hash.keyring
"$LW" scan sc --keys hash.keyring --no-cache --json -o hash.ndjson > /dev/null
grep -q '"cert":"mark #1.wmc","design":"d0.cdfg","found":true' hash.ndjson
# ...and "CI #1" is one identity: its key finds no mark (exit 1, not 2).
{ echo 'locwm-keyring v1'; echo 'key "CI #1" it-1 cert.wmc.0'; } > id.keyring
RC=0
"$LW" scan sc --keys id.keyring --no-cache > /dev/null || RC=$?
test "$RC" -eq 1

# Detection and scan run one engine: on the published design, each scan
# match row carries the numbers detect and detect-reg print for the same
# certificate.
"$LW" detect published.cdfg core.sched cert.wmc.0 cert.wmc.1 -i "CI Author" \
    -n it-1 > detect.out
"$LW" detect-reg published.cdfg pub.sched reg.bind reg.wmc -i "CI Author" \
    -n it-1 > detect-reg.out
scanrow() {
  sed -n "s/.*\"cert\":\"$1\",\"design\":\"d0.cdfg\".*\"satisfied\":\([0-9]*\),\"shape_matches\":\([0-9]*\),\"total\":\([0-9]*\).*/$2/p" \
      scan-prefix.ndjson
}
agree() {
  test -n "$2" && test "$2" = "$3" || {
    echo "$1: detect says '$2', scan says '$3'" >&2
    exit 1
  }
}
for c in cert.wmc.0 cert.wmc.1; do
  agree "$c" \
      "$(sed -n "s/^$c .*(\([0-9]*\/[0-9]*\) constraints, \([0-9]*\) shape.*/\1 \2/p" detect.out)" \
      "$(scanrow "$c" '\1\/\3 \2')"
done
agree reg.wmc \
    "$(sed -n 's/^reg.wmc .*pairs, \([0-9]*\) shape matches.*/\1/p' detect-reg.out)" \
    "$(scanrow reg.wmc '\2')"
# ...and the same Pc: the design row of a one-certificate ring carries the
# Pc detect prints for that certificate.
noPcGap detect.out
agree "cert.wmc.0 Pc" \
    "$(sed -n 's/^cert.wmc.0 .*, Pc[<=~]*\([0-9.e+-]*\).*/\1/p' detect.out)" \
    "$(sed -n 's/.*"design":"d0.cdfg".*"pc_log10":\([^,]*\),.*"type":"design".*/\1/p' \
        commented.ndjson | awk '{ printf "%.2e", 10 ^ $1 }')"
for rows in scan-prefix.ndjson commented.ndjson; do
  if grep -q '"pc_log10":-300' "$rows"; then
    echo "$rows: a design row carries the 1e-300 floor" >&2
    exit 1
  fi
done
# A whole-design certificate orders the design once and derives nothing.
"$LW" detect-tm published.cdfg tm.cover tm.wmc -i "CI Author" -n it-1 \
    --lib lib.tml --stats tm-stats.json > /dev/null
D=$(counter tm-stats.json core.locality.derive_calls)
test -z "$D" || test "$D" -eq 0
test "$OBS" != 1 || test "$(counter tm-stats.json cdfg.ordering.runs)" -eq 1
"$LW" -q version | grep -q '^locwm '
bad "unknown command '--bogus'" --bogus scan sc --keys scan.keyring
bad "unknown command '--bogus'" --threads 4 --bogus scan sc --keys scan.keyring

# Every command of the usage table, run without arguments, is a usage
# error (version takes none and succeeds).
"$LW" 2>&1 | sed -n 's/^  \([a-z][a-z-]*\) .*/\1/p; s/^  \([a-z][a-z-]*\)$/\1/p' \
    > commands.txt
test "$(wc -l < commands.txt)" -eq 18
while read -r cmd; do
  if [ "$cmd" != version ]; then
    bad 'usage: locwm' "$cmd" < /dev/null
  fi
done < commands.txt

# ...validated structurally when python3 and the repo checkout are around,
# as is the OpenMetrics exposition (required families per ISSUE 7).
if [ -n "$SRC" ] && command -v python3 > /dev/null 2>&1; then
  python3 "$SRC/scripts/check_sarif.py" lint.sarif diff.sarif ws.sarif
  test "$OBS" != 1 || python3 "$SRC/scripts/check_metrics.py" metrics.txt \
      --require locwm_rt_lane_utilization_pct \
      --require locwm_mem_peak_rss_kib \
      --min-summaries 1
fi

echo "cli round trip OK"
